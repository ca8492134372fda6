package main

import (
	"sort"
	"sync"
	"time"
)

// freshness tracks how long an acked ingest batch waits before a served
// revision reflects it. Each ack records the client-side cumulative count
// of acked records; each refresh records the router's folded-record count
// (Sinks().FoldedRecords) read just before it started. A batch counts as
// folded by the first refresh whose starting folded count covers the
// batch's cumulative count, and its staleness runs from its ack to that
// refresh's return. Shards fold in parallel, so folded-count order can
// differ from ack order by the few batches in flight; folds finish within
// milliseconds of their ack, so the attribution error is below the refresh
// period by orders of magnitude.
type freshness struct {
	mu        sync.Mutex
	acked     int64
	batches   []ackRecord
	refreshes []refreshRecord
}

type ackRecord struct {
	at       time.Duration
	cum      int64
	measured bool
}

type refreshRecord struct {
	start, end time.Duration
	folded     int64
}

// ack records one batch of n records acked at at; measured marks batches
// whose staleness is reported.
func (f *freshness) ack(at time.Duration, n int, measured bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acked += int64(n)
	f.batches = append(f.batches, ackRecord{at: at, cum: f.acked, measured: measured})
}

// ackedRecords is the client-side total of records acked with 202.
func (f *freshness) ackedRecords() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acked
}

// refresh records one refresh that started with folded records folded.
func (f *freshness) refresh(start, end time.Duration, folded int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refreshes = append(f.refreshes, refreshRecord{start: start, end: end, folded: folded})
}

// staleness returns the staleness in seconds of every measured batch, and
// how many measured batches no recorded refresh covered.
func (f *freshness) staleness() ([]float64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	refs := append([]refreshRecord(nil), f.refreshes...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].start < refs[j].start })
	// Folded counts only grow, so a running maximum keeps the search
	// monotone even if a refresh read its count slightly late.
	maxFolded := make([]int64, len(refs))
	var m int64
	for i, r := range refs {
		if r.folded > m {
			m = r.folded
		}
		maxFolded[i] = m
	}
	var out []float64
	uncovered := 0
	for _, b := range f.batches {
		if !b.measured {
			continue
		}
		i := sort.Search(len(refs), func(i int) bool { return maxFolded[i] >= b.cum })
		if i == len(refs) {
			uncovered++
			continue
		}
		s := (refs[i].end - b.at).Seconds()
		if s < 0 {
			s = 0
		}
		out = append(out, s)
	}
	return out, uncovered
}
