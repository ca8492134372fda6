package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

// The reference values are Python's statistics.quantiles(xs, n=4,
// method="inclusive") on 1..10: [3.25, 5.5, 7.75].
func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := quantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("quantile of one sample = %g, want 4", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no samples is not NaN")
	}
}

func TestEligibility(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false},
		{500, 98, true}, {499, 98, false},
		{100, 90, true}, {99, 90, false},
		{20, 50, true}, {19, 50, false},
	} {
		if got := eligible(c.n, c.pct); got != c.want {
			t.Errorf("eligible(%d, p%g) = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 99}, {1000, 99}, {999, 98}, {499, 97}, {120, 90}, {20, 50}, {19, 0}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// A tail percentile is refused below the eligibility rule, and every
// failed or refused operation counts as beyond every limit.
func TestTimingPercentiles(t *testing.T) {
	var tm timing
	for i := 0; i < 999; i++ {
		tm.add(1)
	}
	if _, ok := tm.pct(99); ok {
		t.Fatalf("p99 printed from %d samples", tm.n())
	}
	var r report
	if err := r.setPct("classify", &tm, 50, 99); err == nil {
		t.Fatalf("setPct accepted p99 from %d samples", tm.n())
	}
	for i := 0; i < 11; i++ {
		tm.miss()
	}
	v, ok := tm.pct(99)
	if !ok || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 misses in %d = %v (ok %v), want +Inf", tm.n(), v, ok)
	}
	if v, _ := tm.pct(50); v != 1 {
		t.Fatalf("p50 = %v, want 1", v)
	}
	var one timing
	one.add(3)
	if v, ok := one.pct(50); !ok || v != 3 {
		t.Fatalf("median of one sample = %v (ok %v), want 3", v, ok)
	}
}

// Two of eight segments run slow; the calm median ignores them, where the
// plain median of the whole population does not.
func TestCalmMedian(t *testing.T) {
	var tm timing
	for seg := 0; seg < 8; seg++ {
		for i := 0; i < 10; i++ {
			v := 10.0 + float64(i%2)
			if seg == 2 || seg == 5 {
				v *= 3
			}
			tm.add(v)
		}
	}
	if got := tm.calmMedian(8); got != 10.5 {
		t.Errorf("calm median = %g, want 10.5", got)
	}
	if got := quantile(tm.ms, 0.5); got != 11 {
		t.Errorf("plain median = %g, want 11", got)
	}
	var few timing
	for _, v := range []float64{3, 1, 2} {
		few.add(v)
	}
	if got := few.calmMedian(8); got != 2 {
		t.Errorf("calm median of 3 samples = %g, want their median 2", got)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(rng.New(7), 200, 2*time.Second)
	b := schedule(rng.New(7), 200, 2*time.Second)
	c := schedule(rng.New(8), 200, 2*time.Second)
	if len(a) != 400 || len(b) != len(a) || len(c) != len(a) {
		t.Fatalf("schedule lengths %d %d %d, want 400", len(a), len(b), len(c))
	}
	same := true
	gap := time.Second / 200
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave two schedules: offset %d is %v and %v", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
		if lo, hi := time.Duration(i)*gap, time.Duration(i+1)*gap; a[i] < lo || a[i] >= hi {
			t.Fatalf("offset %d at %v leaves its slot [%v, %v)", i, a[i], lo, hi)
		}
	}
	if same {
		t.Fatalf("seeds 7 and 8 gave the same schedule")
	}
	if s := schedule(rng.New(7), 0, time.Second); s != nil {
		t.Fatalf("a zero rate scheduled %d operations", len(s))
	}
}

// A hand-built timeline: three measured batches and one warm-up batch,
// and three refreshes recorded out of order, one of which read its folded
// count late.
func TestStalenessAccounting(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var f freshness
	f.ack(ms(50), 10, false)  // cum 10, warm-up: not reported
	f.ack(ms(100), 100, true) // cum 110
	f.ack(ms(300), 100, true) // cum 210
	f.ack(ms(900), 100, true) // cum 310: no refresh covers it
	f.refresh(ms(600), ms(800), 210)
	f.refresh(ms(200), ms(500), 110)
	// Started after the refresh at 200 ms but read a lower count: the
	// running maximum keeps the search monotone, so it covers nothing new.
	f.refresh(ms(550), ms(560), 100)

	got, uncovered := f.staleness()
	want := []float64{0.4, 0.5}
	if uncovered != 1 || len(got) != len(want) {
		t.Fatalf("staleness = %v with %d uncovered, want %v with 1", got, uncovered, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("batch %d staleness %g s, want %g s", i, got[i], want[i])
		}
	}
	if f.ackedRecords() != 310 {
		t.Errorf("acked %d records, want 310", f.ackedRecords())
	}
}

// Traffic-weighted draws follow their weights, never draw a zero weight,
// and report the top-weight share a perfect cache would serve.
func TestWeightedDraws(t *testing.T) {
	w := []float64{0, 3, 0, 1}
	p, err := newWeighted(rng.New(5), w)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(w))
	const n = 40000
	for i := 0; i < n; i++ {
		counts[p.next()]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero weights drawn: %v", counts)
	}
	if share := float64(counts[1]) / n; math.Abs(share-0.75) > 0.01 {
		t.Errorf("weight 3 of 4 drawn %.3f of the time, want 0.75", share)
	}
	if got := p.topShare(1); got != 0.75 {
		t.Errorf("top-1 share %g, want 0.75", got)
	}
	for _, bad := range [][]float64{{0, 0}, {1, -1}, {1, math.NaN()}} {
		if _, err := newWeighted(rng.New(5), bad); err == nil {
			t.Errorf("weights %v accepted", bad)
		}
	}
}
