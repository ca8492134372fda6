package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/forecast"
	"repro/internal/mat"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/serve"
)

// vectors holds every outdoor antenna's classify fragment — the JSON of one
// serve.AntennaVector — encoded once, so a request body is assembled by
// concatenation and the generator spends no encode time in the window.
type vectors struct {
	frags [][]byte
}

// newVectors encodes the outdoor population; withRevision gives antenna i
// the fixed revision i+1, which makes its verdict cacheable.
func newVectors(outdoor interface {
	Rows() int
	Row(int) []float64
}, withRevision bool) (*vectors, error) {
	v := &vectors{frags: make([][]byte, outdoor.Rows())}
	for i := range v.frags {
		av := serve.AntennaVector{ID: uint32(i), Traffic: outdoor.Row(i)}
		if withRevision {
			av.Revision = uint64(i) + 1
		}
		b, err := json.Marshal(av)
		if err != nil {
			return nil, fmt.Errorf("encode antenna %d: %w", i, err)
		}
		v.frags[i] = b
	}
	return v, nil
}

// body assembles a ClassifyRequest body for the given antennas.
func (v *vectors) body(ids []uint32) []byte {
	n := len(`{"antennas":[]}`) + len(ids)
	for _, id := range ids {
		n += len(v.frags[id])
	}
	b := make([]byte, 0, n)
	b = append(b, `{"antennas":[`...)
	for k, id := range ids {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, v.frags[id]...)
	}
	return append(b, `]}`...)
}

// uniformIDs draws n distinct antennas out of pop.
func uniformIDs(src *rng.Source, pop, n int) []uint32 {
	perm := src.Perm(pop)[:n]
	ids := make([]uint32, n)
	for k, p := range perm {
		ids[k] = uint32(p)
	}
	return ids
}

// weighted draws indices in proportion to fixed non-negative weights.
type weighted struct {
	w   []float64
	cdf []float64
	src *rng.Source
}

func newWeighted(src *rng.Source, w []float64) (*weighted, error) {
	cdf := make([]float64, len(w))
	var sum float64
	for i, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("weight %d is %v", i, x)
		}
		sum += x
		cdf[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("all %d weights are zero", len(w))
	}
	return &weighted{w: w, cdf: cdf, src: src}, nil
}

// next returns an index; a zero-weight index is never drawn.
func (p *weighted) next() int {
	u := p.src.Float64() * p.cdf[len(p.cdf)-1]
	return sort.Search(len(p.cdf), func(i int) bool { return p.cdf[i] > u })
}

// topShare is the weight share of the cap heaviest indices: the hit share
// a perfect cache of cap entries would reach on this draw law.
func (p *weighted) topShare(cap int) float64 {
	s := append([]float64(nil), p.w...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	var top float64
	for i := 0; i < cap && i < len(s); i++ {
		top += s[i]
	}
	return top / p.cdf[len(p.cdf)-1]
}

// trafficPicker draws outdoor antennas in proportion to each antenna's
// total traffic over the campaign (its OutdoorTraffic row sum): an antenna
// that carries more traffic is classified more often.
func trafficPicker(src *rng.Source, outdoor *mat.Dense) (*weighted, error) {
	w := make([]float64, outdoor.Rows())
	for i := range w {
		for _, mb := range outdoor.Row(i) {
			w[i] += mb
		}
	}
	p, err := newWeighted(src, w)
	if err != nil {
		return nil, fmt.Errorf("outdoor traffic: %w", err)
	}
	return p, nil
}

func (p *weighted) ids(n int) []uint32 {
	ids := make([]uint32, n)
	for k := range ids {
		ids[k] = uint32(p.next())
	}
	return ids
}

// fcQuery is one /v1/forecast selector.
type fcQuery struct {
	antenna bool
	id      int
	horizon int
	body    []byte
}

var fcHorizons = []int{24, 48, 168}

func (q fcQuery) String() string {
	kind := "cluster"
	if q.antenna {
		kind = "antenna"
	}
	return fmt.Sprintf("%s %d horizon %d", kind, q.id, q.horizon)
}

// drawForecast picks one of the set's models uniformly — a cluster model
// or a sampled-antenna model, so the share of cluster selectors is the
// set's own K/(K+antennas) — or a cluster model only with clustersOnly. The
// horizon is 24, 48 or 168 hours.
func drawForecast(src *rng.Source, set *forecast.Set, clustersOnly bool) (fcQuery, error) {
	q := fcQuery{horizon: fcHorizons[src.Intn(len(fcHorizons))]}
	var req serve.ForecastRequest
	req.Horizon = q.horizon
	models := set.K()
	if !clustersOnly {
		models += len(set.Antennas)
	}
	if m := src.Intn(models); m < set.K() {
		q.id = m
		c := q.id
		req.Cluster = &c
	} else {
		q.antenna = true
		q.id = set.Antennas[m-set.K()].Antenna
		a := q.id
		req.Antenna = &a
	}
	b, err := json.Marshal(req)
	if err != nil {
		return q, fmt.Errorf("encode forecast query: %w", err)
	}
	q.body = b
	return q, nil
}

// ingestBatch is one probe-wire batch body and its record count.
type ingestBatch struct {
	body    []byte
	records int
}

// makeIngestBatches builds n distinct batches of size records each. A
// record's (indoor antenna, service) pair is drawn in proportion to that
// pair's campaign traffic (the Traffic matrix), so ingest lands where the
// measured demand is; batch b carries hour b mod 24. Each record carries
// a few kB, which keeps the folded volume a negligible fraction of the
// campaign's traffic so a warm refresh stays far below the drift
// threshold.
func makeIngestBatches(src *rng.Source, n, size int, traffic *mat.Dense) ([]ingestBatch, error) {
	cols := traffic.Cols()
	cells := make([]float64, 0, traffic.Rows()*cols)
	for i := 0; i < traffic.Rows(); i++ {
		cells = append(cells, traffic.Row(i)...)
	}
	pick, err := newWeighted(src, cells)
	if err != nil {
		return nil, fmt.Errorf("indoor traffic: %w", err)
	}
	out := make([]ingestBatch, n)
	for b := range out {
		var buf bytes.Buffer
		pw := probe.NewWriter(&buf)
		for j := 0; j < size; j++ {
			cell := pick.next()
			rec := probe.Record{
				Hour:       uint32(b % 24),
				AntennaID:  uint32(cell / cols),
				Protocol:   probe.TCP,
				ServerPort: 443,
				ServerName: probe.DomainOf(cell % cols),
				DownBytes:  uint64(1000 + src.Intn(4000)),
				UpBytes:    uint64(100 + src.Intn(400)),
			}
			if err := pw.Write(rec); err != nil {
				return nil, fmt.Errorf("encode ingest batch: %w", err)
			}
		}
		if err := pw.Flush(); err != nil {
			return nil, fmt.Errorf("encode ingest batch: %w", err)
		}
		out[b] = ingestBatch{body: buf.Bytes(), records: size}
	}
	return out, nil
}

// auditLog keeps the first few audit failures for the report.
type auditLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (a *auditLog) fail(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	if len(a.first) < 5 {
		a.first = append(a.first, fmt.Sprintf(format, args...))
	}
}

func (a *auditLog) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// post sends one request and classifies the status: 2xx is ok, 429 and 503
// are refusals, anything else a failure, which errs records. The body is
// returned for 2xx, with the time it had been read in full: the end of the
// operation's latency.
func post(c *http.Client, url, ctype string, body []byte, errs *auditLog) ([]byte, outcome, time.Time) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		done := time.Now()
		errs.fail("POST %s: %v", url, err)
		return nil, opFailed, done
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	done := time.Now()
	if err != nil {
		errs.fail("POST %s: read answer: %v", url, err)
		return nil, opFailed, done
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, opRefused, done
	case resp.StatusCode/100 != 2:
		errs.fail("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
		return nil, opFailed, done
	}
	return data, opOK, done
}

// checkClassify audits one classify answer: it must list the requested
// antennas in order, and each verdict must equal the OutdoorLabels entry of
// the offline result of the revision the answer echoes.
func checkClassify(data []byte, ids []uint32, labelsFor func(rev uint64) ([]int, bool), audit *auditLog) (serve.ClassifyResponse, outcome) {
	var cr serve.ClassifyResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		audit.fail("classify: undecodable answer: %v", err)
		return cr, opWrong
	}
	labels, ok := labelsFor(cr.ModelRevision)
	if !ok {
		audit.fail("classify: answer echoes unregistered revision %016x", cr.ModelRevision)
		return cr, opWrong
	}
	if len(cr.Results) != len(ids) {
		audit.fail("classify: %d verdicts for %d antennas", len(cr.Results), len(ids))
		return cr, opWrong
	}
	for k, v := range cr.Results {
		if v.ID != ids[k] || v.Cluster != labels[ids[k]] {
			audit.fail("classify: antenna %d got cluster %d under revision %016x, offline says %d",
				ids[k], v.Cluster, cr.ModelRevision, labels[ids[k]])
			return cr, opWrong
		}
	}
	return cr, opOK
}

// checkForecast audits one forecast answer bit for bit against
// Model.Forecast of the answering revision's forecast set.
func checkForecast(data []byte, q fcQuery, setFor func(rev uint64) (*forecast.Set, bool), audit *auditLog) (serve.ForecastResponse, outcome) {
	var fr serve.ForecastResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		audit.fail("forecast: undecodable answer: %v", err)
		return fr, opWrong
	}
	set, ok := setFor(fr.ModelRevision)
	if !ok || set == nil {
		audit.fail("forecast: answer echoes unregistered revision %016x", fr.ModelRevision)
		return fr, opWrong
	}
	var m *forecast.Model
	if q.antenna {
		if am := set.Antenna(q.id); am != nil {
			m = am.Model
		}
	} else if cm := set.Cluster(q.id); cm != nil {
		m = cm.Model
	}
	if m == nil {
		audit.fail("forecast: revision %016x has no model for %s", fr.ModelRevision, q)
		return fr, opWrong
	}
	want := m.Forecast(q.horizon)
	if len(want) != len(fr.Forecast) {
		audit.fail("forecast: %d hours served, %d expected", len(fr.Forecast), len(want))
		return fr, opWrong
	}
	for h := range want {
		if math.Float64bits(want[h]) != math.Float64bits(fr.Forecast[h]) {
			audit.fail("forecast: revision %016x %s hour %d served %v, offline %v",
				fr.ModelRevision, q, h, fr.Forecast[h], want[h])
			return fr, opWrong
		}
	}
	return fr, opOK
}
