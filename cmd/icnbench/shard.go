package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/serve"
	"repro/internal/services"
	"repro/internal/shard"
)

// shardBenchRecord is the BENCH_shard.json schema: one snapshot of the
// sharded nationwide tier under bulk ingest with a shard and a replica
// killed mid-run, plus proxied classify latency and one cross-shard
// refresh. TotalMS and Stages mirror benchRecord so the gate ratchets the
// sharded rows exactly like the pipeline stages.
type shardBenchRecord struct {
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Trees    int     `json:"trees"`
	Shards   int     `json:"shards"`
	Replicas int     `json:"replicas"`
	Clients  int     `json:"clients"`
	Batches  int     `json:"batches_per_client"`
	PerBatch int     `json:"records_per_batch"`

	RingDigest    string `json:"ring_digest"`
	AckedBatches  int64  `json:"acked_batches"`
	AckedRecords  int64  `json:"acked_records"`
	Rejected429   int64  `json:"rejected_429"`
	FoldedRecords int    `json:"folded_records"`
	ShardKills    int64  `json:"shard_kills"`
	ReplicaKills  int64  `json:"replica_kills"`

	IngestWallMS   float64 `json:"ingest_wall_ms"`
	RecordsPerS    float64 `json:"records_per_s"`
	ClassifyReqs   int     `json:"classify_requests"`
	ClassifyP50MS  float64 `json:"classify_p50_ms"`
	ClassifyP99MS  float64 `json:"classify_p99_ms"`
	RefreshMS      float64 `json:"refresh_ms"`
	FanoutMS       float64 `json:"fanout_ms"`
	RefreshedRev   uint64  `json:"refreshed_revision"`
	ParityAntennas int     `json:"parity_antennas"`

	TotalMS float64     `json:"total_ms"`
	Stages  []stageJSON `json:"stages"`
}

// runShardBench stands up the full sharded tier — N ingest shards on a
// consistent-hash ring behind M serve replicas — around a freshly trained
// snapshot, drives a bulk probe-session load through the router with
// concurrent clients while killing one shard and one replica mid-flight,
// then audits the two distributed invariants:
//
//  1. acked-batch durability: after the drain, the shard sinks hold
//     exactly the records acked with 202 — kills included;
//  2. served↔offline parity per echoed revision: every proxied classify
//     answer matches the offline OutdoorLabels of the revision it echoes,
//     before and after a cross-shard refresh fans a new revision out.
func runShardBench(cfg analysis.Config, shards, replicas, clients, batches, perBatch int, outPath string) error {
	if replicas <= 0 {
		replicas = 2
	}
	if clients <= 0 {
		clients = 8
	}
	if batches <= 0 {
		batches = 50
	}
	if perBatch <= 0 {
		perBatch = 5000
	}
	fmt.Fprintf(os.Stderr, "icnbench: training snapshot (seed=%d scale=%.2f trees=%d)...\n",
		cfg.Seed, cfg.Scale, cfg.ForestTrees)
	res, err := analysis.Run(cfg)
	if err != nil {
		return err
	}
	snap, err := serve.NewModelSnapshot(res)
	if err != nil {
		return err
	}
	rt, err := shard.NewRouter(snap, res, shard.Config{
		Shards: shards, Replicas: replicas,
		RingSeed: cfg.Seed, QueueDepth: 256,
	})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	url := rt.URL()
	rec := shardBenchRecord{
		Seed: cfg.Seed, Scale: cfg.Scale, Trees: cfg.ForestTrees,
		Shards: shards, Replicas: replicas,
		Clients: clients, Batches: batches, PerBatch: perBatch,
		RingDigest: fmt.Sprintf("%016x", rt.Ring().Digest()),
	}

	// Ingest leg: clients × batches × perBatch synthetic probe sessions
	// spread over the full indoor population, each batch partitioned across
	// the ring and acked all-or-nothing. One shard dies at ~1/3 of the
	// acked volume and one replica at ~1/2; 429s back off and retry against
	// the updated ring, so every session eventually lands.
	nIndoor := res.Dataset.Traffic.Rows()
	total := clients * batches * perBatch
	fmt.Fprintf(os.Stderr, "icnbench: shard load — %d clients × %d batches × %d records (%d sessions) against %s (%d shards, %d replicas)\n",
		clients, batches, perBatch, total, url, shards, replicas)

	var (
		ackedBatches atomic.Int64
		rejected     atomic.Int64
		killOnce     sync.Once
		replOnce     sync.Once
		loadErrs     []error
		errMu        sync.Mutex
		loaders      pipe.Tasks
	)
	fail := func(err error) {
		errMu.Lock()
		loadErrs = append(loadErrs, err)
		errMu.Unlock()
	}
	killAt := int64(clients*batches) / 3
	replicaAt := int64(clients*batches) / 2
	ingestStart := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		loaders.Go(func() {
			client := &http.Client{Timeout: 60 * time.Second}
			for b := 0; b < batches; b++ {
				var stream bytes.Buffer
				pw := probe.NewWriter(&stream)
				base := (c*batches + b) * perBatch
				for j := 0; j < perBatch; j++ {
					rec := probe.Record{
						Hour: uint32(j % 24), AntennaID: uint32((base + j) % nIndoor),
						Protocol: probe.TCP, ServerPort: 443,
						ServerName: probe.DomainOf((base + j) % services.M),
						DownBytes:  2 << 20, UpBytes: 1 << 17,
					}
					if err := pw.Write(rec); err != nil {
						fail(err)
						return
					}
				}
				if err := pw.Flush(); err != nil {
					fail(err)
					return
				}
				landed := false
				for attempt := 0; attempt < 200; attempt++ {
					resp, err := client.Post(url+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream.Bytes()))
					if err != nil {
						fail(fmt.Errorf("shard ingest client %d: %w", c, err))
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusAccepted {
						landed = true
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						rejected.Add(1)
						time.Sleep(5 * time.Millisecond)
						continue
					}
					fail(fmt.Errorf("shard ingest client %d: unexpected status %d", c, resp.StatusCode))
					return
				}
				if !landed {
					fail(fmt.Errorf("shard ingest client %d: batch %d never acked", c, b))
					return
				}
				n := ackedBatches.Add(1)
				if shards > 1 && n == killAt {
					killOnce.Do(func() {
						if err := rt.KillShard(shards - 1); err != nil {
							fail(fmt.Errorf("shard kill: %w", err))
							return
						}
						fmt.Fprintf(os.Stderr, "icnbench: killed shard %d at %d/%d acked batches (ring %d/%d alive)\n",
							shards-1, n, clients*batches, rt.Ring().Alive(), rt.Ring().Shards())
					})
				}
				if replicas > 1 && n == replicaAt {
					replOnce.Do(func() {
						kctx, kcancel := context.WithTimeout(context.Background(), 30*time.Second)
						defer kcancel()
						if err := rt.KillReplica(kctx, replicas-1); err != nil {
							fail(fmt.Errorf("replica kill: %w", err))
							return
						}
						fmt.Fprintf(os.Stderr, "icnbench: killed replica %d at %d/%d acked batches\n",
							replicas-1, n, clients*batches)
					})
				}
			}
		})
	}
	loaders.Wait()
	rec.IngestWallMS = float64(time.Since(ingestStart).Microseconds()) / 1000
	if len(loadErrs) > 0 {
		return fmt.Errorf("icnbench: shard ingest leg: %w", loadErrs[0])
	}
	rec.RecordsPerS = float64(total) / (rec.IngestWallMS / 1000)

	// Let the queues fold so the refresh sees every acked record.
	foldCtx, foldCancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer foldCancel()
	for rt.Sinks().PendingRecords() != 0 {
		if foldCtx.Err() != nil {
			return fmt.Errorf("icnbench: shard queues never drained (%d records pending)", rt.Sinks().PendingRecords())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Refresh leg: one fold → retrain → swap → fan-out cycle over the
	// merged cross-shard totals. Every live replica must serve the new
	// revision when RefreshOnce returns — that is the fan-out protocol.
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Minute)
	rout, err := rt.RefreshOnce(rctx)
	rcancel()
	if err != nil {
		return fmt.Errorf("icnbench: shard refresh leg: %w", err)
	}
	if !rout.Swapped {
		return fmt.Errorf("icnbench: shard refresh published no new revision (drift %.4f)", rout.Stats.Drift)
	}
	rec.RefreshMS = float64(rout.Duration.Microseconds()) / 1000
	rec.RefreshedRev = rout.Revision
	// Dead replicas keep their last snapshot; every live one must have
	// converged on the published revision by the time RefreshOnce returned.
	st := rt.Stats()
	for i, rs := range st.Replicas {
		if rs.Alive && rs.Revision != rout.Revision {
			return fmt.Errorf("icnbench: replica %d serves revision %016x, refresh published %016x — fan-out broken",
				i, rs.Revision, rout.Revision)
		}
	}
	rec.FanoutMS = st.LastFanoutMS
	fmt.Fprintf(os.Stderr, "icnbench: refresh published revision %016x in %.1fms (fan-out %.2fms)\n",
		rout.Revision, rec.RefreshMS, rec.FanoutMS)

	// Classify leg: the full outdoor population through the proxy in
	// ≤ 4096-antenna batches, several rounds for a latency distribution.
	// Every response is audited against the offline labels of whichever
	// revision it echoes (base or refreshed) — the served↔offline parity
	// invariant, sustained across replica failover.
	outdoor := res.Dataset.OutdoorTraffic
	const maxBatch = 4096
	var bodies [][]byte
	var starts []int
	for at := 0; at < outdoor.Rows(); at += maxBatch {
		end := at + maxBatch
		if end > outdoor.Rows() {
			end = outdoor.Rows()
		}
		var req serve.ClassifyRequest
		for i := at; i < end; i++ {
			req.Antennas = append(req.Antennas, serve.AntennaVector{
				ID: uint32(i), Traffic: outdoor.Row(i),
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
		starts = append(starts, at)
	}
	const rounds = 3
	var latencies []float64
	client := &http.Client{Timeout: 120 * time.Second}
	parity := 0
	for round := 0; round < rounds; round++ {
		for bi, body := range bodies {
			t0 := time.Now()
			resp, err := client.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("icnbench: shard classify: %w", err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("icnbench: shard classify: status %d: %s", resp.StatusCode, data)
			}
			latencies = append(latencies, float64(time.Since(t0).Microseconds())/1000)
			var cr serve.ClassifyResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				return fmt.Errorf("icnbench: shard classify: %w", err)
			}
			offline, ok := rt.ResultFor(cr.ModelRevision)
			if !ok {
				return fmt.Errorf("icnbench: shard classify echoes unregistered revision %016x", cr.ModelRevision)
			}
			for i, v := range cr.Results {
				want := offline.OutdoorLabels[starts[bi]+i]
				if v.Cluster != want {
					return fmt.Errorf("icnbench: parity broken — antenna %d served cluster %d under revision %016x, offline labels say %d",
						v.ID, v.Cluster, cr.ModelRevision, want)
				}
				parity++
			}
		}
	}
	sort.Float64s(latencies)
	quantile := func(q float64) float64 { return latencies[int(q*float64(len(latencies)-1))] }
	rec.ClassifyReqs = len(latencies)
	rec.ClassifyP50MS = quantile(0.50)
	rec.ClassifyP99MS = quantile(0.99)
	rec.ParityAntennas = parity

	// Drained stop, then the acked-batch audit: folded == acked exactly —
	// the killed shard's drained aggregate included.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), time.Minute)
	defer sdCancel()
	if err := rt.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("icnbench: shard shutdown: %w", err)
	}
	st = rt.Stats()
	rec.AckedBatches = st.AckedBatches
	rec.AckedRecords = st.AckedRecords
	rec.Rejected429 = st.RejectedBatches
	rec.FoldedRecords = st.FoldedRecords
	rec.ShardKills = rt.Metrics().Counter("shard.kills")
	rec.ReplicaKills = rt.Metrics().Counter("shard.replica.kills")
	if st.AckedRecords != int64(total) {
		return fmt.Errorf("icnbench: acked %d records, drove %d", st.AckedRecords, total)
	}
	if int64(st.FoldedRecords) != st.AckedRecords {
		return fmt.Errorf("icnbench: acked-batch loss — folded %d records, acked %d", st.FoldedRecords, st.AckedRecords)
	}

	rec.TotalMS = rec.IngestWallMS + rec.RefreshMS
	rec.Stages = []stageJSON{
		{Name: "shard_ingest", WallMS: rec.IngestWallMS},
		{Name: "shard_classify_p50", WallMS: rec.ClassifyP50MS},
		{Name: "shard_classify_p99", WallMS: rec.ClassifyP99MS},
		{Name: "shard_refresh", WallMS: rec.RefreshMS},
	}
	fmt.Fprintf(os.Stderr, "icnbench: shard PASS — %d sessions acked+folded (%d 429s), %.0f records/s, classify p50 %.1fms p99 %.1fms, parity on %d antenna verdicts\n",
		total, rec.Rejected429, rec.RecordsPerS, rec.ClassifyP50MS, rec.ClassifyP99MS, parity)

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icnbench: wrote shard benchmark to %s\n", outPath)
	return nil
}
