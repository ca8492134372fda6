package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/collect"
	"repro/internal/fault"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/probe"
)

// Sinks is the ingest tier: one collect.Sink per shard, each fed by a
// bounded batch queue drained on its own tracked worker. A Server builds a
// one-shard tier; the shard router builds one shard per ring member and
// hands the same tier to every replica. A batch Offer returns true for is
// folded into its shards' sinks even through a shard Kill or Close — drain
// workers always empty their queue before exiting.
type Sinks struct {
	place  func(antenna uint32) int
	reg    *obs.Registry
	depth  int
	queues []*shardQueue
}

// shardQueue is one shard's bounded ingest queue plus its sink. All queue
// state is guarded by mu; the cond wakes the drain worker on enqueue and
// close.
type shardQueue struct {
	id    int
	sink  *collect.Sink
	tasks pipe.Tasks

	mu      sync.Mutex
	cond    *sync.Cond
	pending [][]probe.Record
	// queued counts records acked into this queue but not yet folded into
	// the sink — it reaches zero exactly when every acked record is
	// aggregated.
	queued int
	closed bool
	dead   bool
}

// NewSinks builds shards queue+sink pairs and starts their drain workers.
// place maps an antenna to its shard in [0, shards). depth ≤ 0 selects 64
// batches per shard. The injector's site throttles or never touches the
// folds (nil injects nothing): fault.Fold for a server's own tier,
// fault.ShardFold for the router's. The shard.fold, shard.queue and
// shard.kills series go to reg, the owning instance's registry.
func NewSinks(shards int, place func(antenna uint32) int, depth int, site fault.Site, faults *fault.Injector, reg *obs.Registry) (*Sinks, error) {
	if shards <= 0 || place == nil || reg == nil {
		return nil, fmt.Errorf("serve: sinks need shards, a placement and a registry")
	}
	if depth <= 0 {
		depth = 64
	}
	s := &Sinks{place: place, reg: reg, depth: depth}
	for i := 0; i < shards; i++ {
		q := &shardQueue{id: i, sink: collect.NewSink()}
		q.cond = sync.NewCond(&q.mu)
		s.queues = append(s.queues, q)
		q.tasks.Go(func() { q.drain(site, faults, reg) })
	}
	return s, nil
}

// drain folds queued batches until the queue closes, then folds whatever
// remains — the worker never exits with acked records unfolded.
func (q *shardQueue) drain(site fault.Site, faults *fault.Injector, reg *obs.Registry) {
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		batch := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()

		// The slow-consumer regime: injected fold delays throttle this
		// shard alone, building queue pressure that surfaces as Offer
		// rejections upstream. Background context — a kill or shutdown
		// must still fold acked batches, never abandon them.
		_ = faults.Wait(context.Background(), site)
		q.sink.AddBatch(batch)

		q.mu.Lock()
		q.queued -= len(batch)
		q.mu.Unlock()
		reg.Add("shard.fold.records", int64(len(batch)))
	}
}

// acceptsLocked reports whether the queue can take one more batch; the
// caller holds mu.
func (q *shardQueue) acceptsLocked(depth int) bool {
	return !q.dead && !q.closed && len(q.pending) < depth
}

// enqueueLocked appends one sub-batch, wakes the drain worker, and returns
// the resulting queue depth; the caller holds mu.
func (q *shardQueue) enqueueLocked(sub []probe.Record) int {
	q.pending = append(q.pending, sub)
	q.queued += len(sub)
	q.cond.Signal()
	return len(q.pending)
}

// Partition splits a batch by the current placement, keyed by shard id.
func (s *Sinks) Partition(batch []probe.Record) map[int][]probe.Record {
	subs := make(map[int][]probe.Record)
	for _, rec := range batch {
		owner := s.place(rec.AntennaID)
		subs[owner] = append(subs[owner], rec)
	}
	return subs
}

// Offer enqueues a partitioned batch atomically across its target shards:
// either every sub-batch is queued (true) or none is (false) — a batch is
// acked whole or rejected whole, which is what keeps the acked-batch
// accounting exact under backpressure. A false return means a target queue
// was full, closed, or dead (e.g. the batch was partitioned just before a
// kill); the caller answers 429 and the client's retry re-partitions
// against the updated placement.
func (s *Sinks) Offer(subs map[int][]probe.Record) bool {
	if len(subs) == 0 {
		return true
	}
	ids := make([]int, 0, len(subs))
	for id := range subs {
		if id < 0 || id >= len(s.queues) {
			return false
		}
		ids = append(ids, id)
	}
	// Lock in ascending shard order so concurrent Offers cannot deadlock.
	sort.Ints(ids)
	for _, id := range ids {
		s.queues[id].mu.Lock()
	}
	ok := true
	for _, id := range ids {
		if !s.queues[id].acceptsLocked(s.depth) {
			ok = false
			break
		}
	}
	depths := make([]int, 0, len(ids))
	if ok {
		for _, id := range ids {
			depths = append(depths, s.queues[id].enqueueLocked(subs[id]))
		}
	}
	for i := len(ids) - 1; i >= 0; i-- {
		s.queues[ids[i]].mu.Unlock()
	}
	h := s.reg.GetHistogram("shard.queue.depth", nil)
	for _, d := range depths {
		h.Observe(float64(d))
	}
	return ok
}

// Fold folds a batch straight into its shards' sinks, bypassing the
// queues: the replay path for records that were never acked over HTTP.
func (s *Sinks) Fold(batch []probe.Record) {
	for id, sub := range s.Partition(batch) {
		s.queues[id].sink.AddBatch(sub)
		s.reg.Add("shard.fold.records", int64(len(sub)))
	}
}

// Kill drains a shard's queue and marks it dead: every batch acked before
// the kill is folded into the shard's sink before Kill returns, so a killed
// shard never loses acked records (its aggregate still counts in
// TrafficMatrix). New offers targeting it are rejected; the caller removes
// the shard from its placement first, so client retries re-place.
func (s *Sinks) Kill(id int) error {
	if id < 0 || id >= len(s.queues) {
		return fmt.Errorf("serve: no shard %d to kill", id)
	}
	q := s.queues[id]
	q.mu.Lock()
	if q.dead {
		q.mu.Unlock()
		return fmt.Errorf("serve: shard %d already dead", id)
	}
	q.dead = true
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.tasks.Wait()
	s.reg.Add("shard.kills", 1)
	return nil
}

// Close drains and stops every shard queue (idempotent per queue).
func (s *Sinks) Close() {
	for _, q := range s.queues {
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	for _, q := range s.queues {
		q.tasks.Wait()
	}
}

// TrafficMatrix merges every shard's aggregate into one antennas × M
// totals matrix — the totals source the refresher folds.
func (s *Sinks) TrafficMatrix(antennas, numServices int) *mat.Dense {
	total := s.queues[0].sink.TrafficMatrix(antennas, numServices)
	for _, q := range s.queues[1:] {
		part := q.sink.TrafficMatrix(antennas, numServices)
		for i := 0; i < antennas; i++ {
			dst, src := total.Row(i), part.Row(i)
			for j := range src {
				dst[j] += src[j]
			}
		}
	}
	return total
}

// FoldedRecords sums the records folded into every shard sink.
func (s *Sinks) FoldedRecords() int {
	return s.aggregate().Records
}

// PendingRecords sums records acked into queues but not yet folded. Zero
// means every acked record is aggregated.
func (s *Sinks) PendingRecords() int {
	total := 0
	for _, q := range s.queues {
		q.mu.Lock()
		total += q.queued
		q.mu.Unlock()
	}
	return total
}

// aggregate sums every shard sink's collector statistics. Producer
// connections and malformed streams are noted on shard 0's sink alone.
func (s *Sinks) aggregate() (out collect.Stats) {
	for _, q := range s.queues {
		st := q.sink.Snapshot()
		out.Connections += st.Connections
		out.Records += st.Records
		out.MalformedStreams += st.MalformedStreams
		out.UnclassifiedMB += st.UnclassifiedMB
	}
	return out
}

// SinkStats is one shard's point-in-time queue and aggregate state.
type SinkStats struct {
	Shard         int  `json:"shard"`
	Dead          bool `json:"dead"`
	QueuedBatches int  `json:"queued_batches"`
	QueuedRecords int  `json:"queued_records"`
	FoldedRecords int  `json:"folded_records"`
}

// Stats snapshots every shard's queue depth and fold progress.
func (s *Sinks) Stats() []SinkStats {
	out := make([]SinkStats, 0, len(s.queues))
	for _, q := range s.queues {
		q.mu.Lock()
		st := SinkStats{
			Shard:         q.id,
			Dead:          q.dead,
			QueuedBatches: len(q.pending),
			QueuedRecords: q.queued,
		}
		q.mu.Unlock()
		st.FoldedRecords = q.sink.Snapshot().Records
		out = append(out, st)
	}
	return out
}
