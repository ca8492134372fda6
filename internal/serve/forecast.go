package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/forecast"
)

// maxForecastHorizon caps /v1/forecast and /v1/plan horizons at two
// hour-of-week seasons — beyond that Holt-Winters extrapolation is pure
// trend and the response payload stops earning its bytes.
const maxForecastHorizon = 2 * forecast.SeasonLength

// defaultForecastHorizon is the horizon served when the request omits it.
const defaultForecastHorizon = 24

// ForecastRequest is the /v1/forecast body: exactly one of Cluster or
// Antenna selects the model; Horizon defaults to 24 hours.
type ForecastRequest struct {
	// Cluster selects a cluster's busy-hour forecaster (median member
	// load per hour).
	Cluster *int `json:"cluster,omitempty"`
	// Antenna selects one sampled antenna's forecaster by indoor index.
	Antenna *int `json:"antenna,omitempty"`
	// Horizon is the number of hours to predict (default 24, max 336).
	Horizon int `json:"horizon,omitempty"`
}

// ForecastResponse carries one model's horizon prediction. Forecast[t] is
// the predicted load t+1 hours after the end of the training series;
// BusyHour/PeakMB locate the peak of the next full season.
type ForecastResponse struct {
	ModelRevision uint64 `json:"model_revision"`
	Cluster       int    `json:"cluster"`
	Antenna       *int   `json:"antenna,omitempty"`
	Horizon       int    `json:"horizon"`
	// Members is the cluster population behind a cluster query (0 for
	// antenna queries).
	Members  int       `json:"members,omitempty"`
	BusyHour int       `json:"busy_hour"`
	PeakMB   float64   `json:"peak_mb"`
	Forecast []float64 `json:"forecast"`
	Cached   bool      `json:"cached,omitempty"`
}

// forecastKey identifies one cached forecast: the queried model (cluster
// or sampled antenna), the horizon, and the snapshot revision the
// prediction was computed under — so a swap can never serve a stale
// forecast even if a racing handler inserts after the purge. Cached
// responses are immutable: handlers copy the struct and only flip the
// Cached flag; the Forecast slice is shared read-only.
type forecastKey struct {
	antenna bool
	id      int
	horizon int
	model   uint64
}

// handleForecast serves cluster- or antenna-conditioned horizon queries
// from the snapshot's forecast set, with an LRU keyed by (model, horizon,
// snapshot revision). The served values are exactly Model.Forecast on the
// revision's fitted state, so offline refits of the same revision's
// result reproduce them bit-for-bit.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST a forecast request")
		return
	}
	var req ForecastRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		WriteBodyError(w, err)
		return
	}
	s.reg.Add("serve.forecast.requests", 1)

	// Load the snapshot once: revision echo, cache key and model reads
	// must agree even if a swap lands mid-request.
	snap := s.snap.Load()
	setRevision(w, snap)
	set := snap.Forecasts
	if set == nil {
		WriteError(w, http.StatusServiceUnavailable, "served snapshot carries no forecast models")
		return
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = defaultForecastHorizon
	}
	if horizon < 1 || horizon > maxForecastHorizon {
		WriteError(w, http.StatusBadRequest, "horizon %d outside [1, %d]", horizon, maxForecastHorizon)
		return
	}
	if (req.Cluster == nil) == (req.Antenna == nil) {
		WriteError(w, http.StatusBadRequest, "exactly one of cluster or antenna must be set")
		return
	}

	var key forecastKey
	if req.Cluster != nil {
		key = forecastKey{id: *req.Cluster, horizon: horizon, model: snap.Revision}
	} else {
		key = forecastKey{antenna: true, id: *req.Antenna, horizon: horizon, model: snap.Revision}
	}
	if resp, ok := s.fcCache.get(key); ok {
		resp.Cached = true
		s.reg.Add("serve.forecast.cache.hits", 1)
		s.reg.ObserveMS("serve.forecast.latency.ms", msSince(startAt))
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	s.reg.Add("serve.forecast.cache.misses", 1)

	resp := ForecastResponse{ModelRevision: snap.Revision, Horizon: horizon}
	if req.Cluster != nil {
		cm := set.Cluster(*req.Cluster)
		if cm == nil {
			WriteError(w, http.StatusBadRequest, "cluster %d outside [0, %d)", *req.Cluster, set.K())
			return
		}
		resp.Cluster = cm.Cluster
		resp.Members = cm.Members
		resp.BusyHour = cm.BusyHour
		resp.PeakMB = cm.PeakMB
		resp.Forecast = cm.Model.Forecast(horizon)
	} else {
		am := set.Antenna(*req.Antenna)
		if am == nil {
			WriteError(w, http.StatusNotFound, "antenna %d was not sampled by the forecast stage", *req.Antenna)
			return
		}
		id := am.Antenna
		resp.Antenna = &id
		resp.Cluster = am.Cluster
		resp.BusyHour = am.BusyHour
		resp.PeakMB = am.PeakMB
		resp.Forecast = am.Model.Forecast(horizon)
	}
	s.fcCache.put(key, resp)
	s.reg.ObserveMS("serve.forecast.latency.ms", msSince(startAt))
	WriteJSON(w, http.StatusOK, resp)
}

// PlanRequest is the /v1/plan body: a what-if scenario scored against the
// served revision's forecast models.
type PlanRequest struct {
	// Horizon is the scoring window in hours (default 24, max 336).
	Horizon int `json:"horizon,omitempty"`
	// Actions edit the scenario before scoring (see forecast.Action).
	Actions []forecast.Action `json:"actions"`
}

// PlanResponse carries the scored scenario.
type PlanResponse struct {
	ModelRevision uint64               `json:"model_revision"`
	Plan          *forecast.PlanResult `json:"plan"`
}

// handlePlan scores a capacity-planning scenario against the served
// snapshot's forecast set. Scenarios are arbitrary action lists, so plan
// responses are computed fresh per request (no cache); the underlying
// per-cluster forecasts they aggregate are the same models /v1/forecast
// serves under this revision.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST a plan request")
		return
	}
	var req PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		WriteBodyError(w, err)
		return
	}
	s.reg.Add("serve.plan.requests", 1)

	snap := s.snap.Load()
	setRevision(w, snap)
	set := snap.Forecasts
	if set == nil {
		WriteError(w, http.StatusServiceUnavailable, "served snapshot carries no forecast models")
		return
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = defaultForecastHorizon
	}
	if horizon < 1 || horizon > maxForecastHorizon {
		WriteError(w, http.StatusBadRequest, "horizon %d outside [1, %d]", horizon, maxForecastHorizon)
		return
	}
	plan, err := set.Plan(req.Actions, horizon)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.reg.ObserveMS("serve.plan.latency.ms", msSince(startAt))
	WriteJSON(w, http.StatusOK, PlanResponse{ModelRevision: snap.Revision, Plan: plan})
}
