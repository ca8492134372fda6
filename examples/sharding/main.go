// Sharding: run the nationwide serving tier on a small deployment — train
// a model, put a consistent-hash ring of ingest shards and two serve
// replicas behind one router, push probe batches through it, kill a shard
// mid-flight, refresh, and show that every acked record survived and both
// replicas serve the same refreshed revision.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	icn "repro"
	"repro/internal/probe"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the whole story and prints each step's claim to w.
func run(ctx context.Context, w io.Writer) (err error) {
	// Train the offline model the replicas will serve.
	result, err := icn.Run(ctx, icn.Config{Seed: 1, Scale: 0.05, ForestTrees: 15})
	if err != nil {
		return err
	}
	snap, err := icn.NewModelSnapshot(result)
	if err != nil {
		return err
	}

	// Three ingest shards on a seeded ring, two replicas. Passing the
	// result wires up the refresh controller: merged cross-shard totals in,
	// fan-out of each retrained snapshot to every replica out.
	router, err := icn.NewRouter(snap, result, icn.ShardConfig{
		Shards: 3, Replicas: 2, RingSeed: 1,
	})
	if err != nil {
		return err
	}
	if err := router.Start(); err != nil {
		return err
	}
	defer func() {
		if serr := router.Shutdown(ctx); err == nil {
			err = serr
		}
	}()

	fmt.Fprintf(w, "router on %s, ring digest %016x\n", router.Addr(), router.Ring().Digest())

	// Push probe batches through the router; each batch is partitioned by
	// antenna across the shards and acked all-or-nothing with a 202.
	indoor := result.Dataset.Traffic.Rows()
	for b := 0; b < 8; b++ {
		var buf bytes.Buffer
		pw := probe.NewWriter(&buf)
		for i := 0; i < 200; i++ {
			rec := probe.Record{
				Hour: uint32(i % 24), AntennaID: uint32((b*200 + i) % indoor),
				Protocol: probe.TCP, ServerPort: 443,
				ServerName: probe.DomainOf(i % 7),
				DownBytes:  8 << 20, UpBytes: 1 << 18,
			}
			if err := pw.Write(rec); err != nil {
				return err
			}
		}
		if err := pw.Flush(); err != nil {
			return err
		}
		resp, err := http.Post(router.URL()+"/v1/ingest", "application/octet-stream", &buf)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("ingest batch %d: status %d, want 202", b, resp.StatusCode)
		}
	}

	// Kill one shard mid-life: its queue drains every acked batch into its
	// sink before the kill returns, and the ring reroutes its antennas.
	if err := router.KillShard(1); err != nil {
		return err
	}
	fmt.Fprintf(w, "killed shard 1: ring now %d/%d alive\n", router.Ring().Alive(), router.Ring().Shards())

	// One refresh cycle: fold the merged cross-shard totals, retrain, swap
	// on the primary, fan out to the other replica.
	out, err := router.RefreshOnce(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "refresh: swapped=%v revision=%016x\n", out.Swapped, out.Revision)

	// Every acked record is folded; both replicas serve the same revision.
	var stats icn.RouterStats
	resp, err := http.Get(router.URL() + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: status %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	fmt.Fprintf(w, "acked %d records, folded %d, pending %d\n",
		stats.AckedRecords, stats.FoldedRecords, stats.PendingRecords)
	for i, rep := range stats.Replicas {
		fmt.Fprintf(w, "replica %d (%s): alive=%v revision=%016x\n", i, rep.Addr, rep.Alive, rep.Revision)
	}
	return nil
}
