// Package forecast implements the proactive-management extension the paper
// motivates in Sections 6-7: the identified clusters "exhibit distinctive
// overall and per-application utilization temporal patterns", which "paves
// the way for the proactive management of ICN traffic by mobile network
// operators". Given a cluster's hourly demand history, the package fits a
// triple-exponential-smoothing (Holt-Winters) model with hour-of-week
// seasonality and produces multi-hour-ahead forecasts plus evaluation
// metrics, so capacity can be provisioned before the commute peak or the
// office morning rather than after.
package forecast

import (
	"errors"
	"fmt"
	"math"
)

// SeasonLength is the canonical hour-of-week period of cellular demand.
const SeasonLength = 168

// Model is a fitted additive Holt-Winters model.
type Model struct {
	// Alpha, Beta, Gamma are the level, trend and seasonal smoothing
	// factors in (0, 1).
	Alpha, Beta, Gamma float64
	// Season is the seasonality period in samples.
	Season int

	level    float64
	trend    float64
	seasonal []float64
	fitted   int
}

// Config parameterizes model fitting.
type Config struct {
	// Alpha, Beta, Gamma override the smoothing factors; zero values
	// select defaults (0.35, 0.05, 0.25) that work well for diurnal
	// traffic.
	Alpha, Beta, Gamma float64
	// Season overrides the seasonal period (default SeasonLength).
	Season int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.35
	}
	if c.Beta == 0 {
		c.Beta = 0.05
	}
	if c.Gamma == 0 {
		c.Gamma = 0.25
	}
	if c.Season == 0 {
		c.Season = SeasonLength
	}
	return c
}

// ErrTooShort reports a series shorter than two seasonal periods.
var ErrTooShort = errors.New("forecast: series shorter than two seasons")

// Fit trains an additive Holt-Winters model on the series, which must
// cover at least two full seasonal periods.
func Fit(series []float64, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	s := cfg.Season
	if len(series) < 2*s {
		return nil, fmt.Errorf("%w: %d samples, need %d", ErrTooShort, len(series), 2*s)
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 || cfg.Beta <= 0 || cfg.Beta >= 1 || cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("forecast: smoothing factors must lie in (0,1)")
	}
	for i, v := range series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("forecast: non-finite sample %v at index %d", v, i)
		}
	}

	m := &Model{Alpha: cfg.Alpha, Beta: cfg.Beta, Gamma: cfg.Gamma, Season: s}

	// Initialization: level = mean of first season; trend = average
	// cross-season slope; seasonal = first-season deviations.
	var first, second float64
	for i := 0; i < s; i++ {
		first += series[i]
		second += series[s+i]
	}
	first /= float64(s)
	second /= float64(s)
	m.level = first
	m.trend = (second - first) / float64(s)
	m.seasonal = make([]float64, s)
	for i := 0; i < s; i++ {
		m.seasonal[i] = series[i] - first
	}

	for t := s; t < len(series); t++ {
		m.update(series[t], t)
	}
	m.fitted = len(series)
	return m, nil
}

// update performs one additive Holt-Winters recursion step.
func (m *Model) update(y float64, t int) {
	i := t % m.Season
	prevLevel := m.level
	m.level = m.Alpha*(y-m.seasonal[i]) + (1-m.Alpha)*(m.level+m.trend)
	m.trend = m.Beta*(m.level-prevLevel) + (1-m.Beta)*m.trend
	m.seasonal[i] = m.Gamma*(y-m.level) + (1-m.Gamma)*m.seasonal[i]
}

// Observe extends the model with one new observation, enabling rolling
// forecasts.
func (m *Model) Observe(y float64) {
	m.update(y, m.fitted)
	m.fitted++
}

// Forecast returns h-step-ahead predictions from the end of the observed
// series. Negative predictions are clamped to zero (traffic cannot be
// negative).
func (m *Model) Forecast(h int) []float64 {
	out := make([]float64, h)
	for k := 1; k <= h; k++ {
		i := (m.fitted + k - 1) % m.Season
		v := m.level + float64(k)*m.trend + m.seasonal[i]
		if v < 0 {
			v = 0
		}
		out[k-1] = v
	}
	return out
}

// Evaluation summarizes forecast accuracy over a held-out horizon.
type Evaluation struct {
	// MAE is the mean absolute error.
	MAE float64
	// SMAPE is the symmetric mean absolute percentage error in [0, 2].
	SMAPE float64
	// PeakHourHit reports whether the forecast placed the held-out
	// window's daily peak at the right hour-of-day on most days.
	PeakHourHit bool
}

// Backtest fits on series[:len-holdout], forecasts the holdout, and
// scores it. holdout must be a positive multiple of 24 and leave at least
// two seasons for training.
func Backtest(series []float64, holdout int, cfg Config) (Evaluation, error) {
	train, actual, err := split(series, holdout)
	if err != nil {
		return Evaluation{}, err
	}
	m, err := Fit(train, cfg)
	if err != nil {
		return Evaluation{}, err
	}
	return score(m.Forecast(holdout), actual), nil
}

// split checks a backtest holdout and cuts the series into its training
// prefix and held-out suffix.
func split(series []float64, holdout int) (train, actual []float64, err error) {
	if holdout <= 0 || holdout%24 != 0 {
		return nil, nil, fmt.Errorf("forecast: holdout must be a positive multiple of 24, got %d", holdout)
	}
	if holdout > len(series) {
		return nil, nil, fmt.Errorf("%w: holdout %d exceeds the %d-sample series", ErrTooShort, holdout, len(series))
	}
	cut := len(series) - holdout
	return series[:cut], series[cut:], nil
}

func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			bestV = x
			best = i
		}
	}
	return best
}

// FitLog fits the model on log1p-transformed values — the right space for
// traffic volumes, whose variation is multiplicative. Forecasts from the
// returned model must be read through ForecastLog.
func FitLog(series []float64, cfg Config) (*Model, error) {
	logged := make([]float64, len(series))
	for i, v := range series {
		if v < 0 {
			return nil, fmt.Errorf("forecast: negative traffic %v at %d", v, i)
		}
		logged[i] = math.Log1p(v)
	}
	return Fit(logged, cfg)
}

// ForecastLog returns h-step-ahead predictions of a FitLog model,
// back-transformed to the original scale.
func ForecastLog(m *Model, h int) []float64 {
	out := m.Forecast(h)
	for i, v := range out {
		out[i] = math.Expm1(v)
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// BacktestLog evaluates a log-space fit against the raw-scale holdout.
func BacktestLog(series []float64, holdout int, cfg Config) (Evaluation, error) {
	train, actual, err := split(series, holdout)
	if err != nil {
		return Evaluation{}, err
	}
	m, err := FitLog(train, cfg)
	if err != nil {
		return Evaluation{}, err
	}
	return score(ForecastLog(m, holdout), actual), nil
}

// score computes the shared evaluation metrics of a forecast.
func score(pred, actual []float64) Evaluation {
	var mae, smape float64
	for i := range actual {
		diff := math.Abs(pred[i] - actual[i])
		mae += diff
		if denom := (math.Abs(pred[i]) + math.Abs(actual[i])) / 2; denom > 0 {
			smape += diff / denom
		}
	}
	n := float64(len(actual))
	ev := Evaluation{MAE: mae / n, SMAPE: smape / n}
	days := len(actual) / 24
	hits := 0
	for d := 0; d < days; d++ {
		if argmax(pred[d*24:(d+1)*24]) == argmax(actual[d*24:(d+1)*24]) {
			hits++
		}
	}
	ev.PeakHourHit = days > 0 && hits*2 >= days
	return ev
}

// SeasonalNaive returns the baseline forecast that repeats the last
// observed season — the standard yardstick a model must beat.
func SeasonalNaive(series []float64, h, season int) []float64 {
	out := make([]float64, h)
	if len(series) < season {
		return out
	}
	last := series[len(series)-season:]
	for k := 0; k < h; k++ {
		out[k] = last[k%season]
	}
	return out
}

// BacktestNaive scores the seasonal-naive baseline on the same split as
// Backtest.
func BacktestNaive(series []float64, holdout, season int) (Evaluation, error) {
	train, actual, err := split(series, holdout)
	if err != nil {
		return Evaluation{}, err
	}
	if len(train) <= season {
		return Evaluation{}, fmt.Errorf("forecast: naive backtest needs more than one %d-sample season of training, got %d", season, len(train))
	}
	return score(SeasonalNaive(train, holdout, season), actual), nil
}
