// Command icnserve runs the online antenna-classification service: it
// trains a model snapshot by running the offline pipeline on a synthetic
// campaign, then serves probe-batch ingest and Eq. 5 + surrogate-forest
// classification over HTTP until SIGINT/SIGTERM, draining in-flight ingest
// batches on the way out. Ingest folds through a one-shard tier: one
// bounded queue of -queue batches and one drain worker.
//
// Usage:
//
//	icnserve -addr 127.0.0.1:9470 [-seed N] [-scale F] [-trees N]
//	         [-queue N] [-timeout D] [-cache N]
//	         [-refresh-interval D] [-drift-threshold F]
//	icnserve -sample DIR [-seed N] [-scale F]   # write curl-able bodies, exit
//
// With -refresh-interval > 0 the service closes the ingest → retrain → swap
// loop: a background controller periodically folds the ingested aggregates
// over the training campaign, re-runs the warm pipeline on the antennas
// that changed (escalating to a full re-clustering past -drift-threshold),
// and atomically swaps in the retrained snapshot. /v1/model reports the
// refresh telemetry.
//
// With -sample the command does not serve: it writes DIR/ingest.bin (a
// probe wire-format batch) and DIR/classify.json (a classify request for
// the matching model), the bodies TestServeSmoke sends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/services"
	"repro/internal/synth"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9470", "HTTP listen address")
	seed := flag.Uint64("seed", 1, "pipeline seed for the trained snapshot")
	scale := flag.Float64("scale", 0.1, "training-campaign scale (1 = paper's full population)")
	trees := flag.Int("trees", 50, "surrogate forest size")
	queue := flag.Int("queue", 64, "ingest queue depth in batches")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline")
	cacheSize := flag.Int("cache", 4096, "classify LRU capacity (entries)")
	refreshEvery := flag.Duration("refresh-interval", 0, "continuous model refresh period (0 disables the refresh loop)")
	driftThreshold := flag.Float64("drift-threshold", analysis.DefaultDriftThreshold,
		"reassigned-antenna fraction past which a refresh re-runs the full clustering")
	sample := flag.String("sample", "", "write sample ingest/classify request bodies to this directory and exit")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "icnserve: training snapshot (seed=%d scale=%.2f trees=%d)...\n",
		*seed, *scale, *trees)
	res, err := analysis.Run(analysis.Config{Seed: *seed, Scale: *scale, ForestTrees: *trees})
	if err != nil {
		fatal(err)
	}
	snap, err := serve.NewModelSnapshot(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "icnserve: snapshot ready — %d services, k=%d, revision %d\n",
		snap.Services, snap.K, snap.Revision)

	if *sample != "" {
		if err := writeSamples(*sample, snap, *seed); err != nil {
			fatal(err)
		}
		return
	}

	srv, err := serve.New(snap, nil, serve.Config{
		Addr:           *addr,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	var refresher *serve.Refresher
	if *refreshEvery > 0 {
		refresher, err = serve.NewRefresher(srv, res, serve.RefreshConfig{
			Interval:       *refreshEvery,
			DriftThreshold: *driftThreshold,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "icnserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		refresher.Start()
		fmt.Fprintf(os.Stderr, "icnserve: refresh loop every %s (drift threshold %.3f)\n",
			*refreshEvery, *driftThreshold)
	}
	fmt.Printf("icnserve: serving on http://%s (SIGINT to stop)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintln(os.Stderr, "icnserve: shutting down, draining ingest queue...")
	if refresher != nil {
		refresher.Stop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("icnserve: stopped — %d batches / %d records ingested, %d vectors classified (%d cache hits)\n",
		st.IngestBatches, st.IngestRecords, st.ClassifiedVectors, st.CacheHits)
}

// writeSamples emits request bodies matched to the trained snapshot: a
// probe-stream ingest batch and a classify request over synthetic outdoor
// antennas.
func writeSamples(dir string, snap *serve.ModelSnapshot, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Ingest: one day of sessions for a couple of antennas.
	ds := synth.Generate(synth.Config{Seed: seed, Scale: 0.02, OutdoorCount: 8})
	r := rng.New(seed + 1)
	var records []probe.Record
	for _, a := range ds.Indoor[:2] {
		perService := make([]float64, services.M)
		for j := 0; j < services.M; j++ {
			series := ds.HourlyService(a, j)
			for h := 0; h < 24; h++ {
				perService[j] = series[h]
				records = append(records, probe.GenerateSessions(uint32(h), uint32(a.ID), perService, r)...)
				perService[j] = 0
			}
		}
	}
	ingestPath := filepath.Join(dir, "ingest.bin")
	f, err := os.Create(ingestPath)
	if err != nil {
		return err
	}
	w := probe.NewWriter(f)
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Classify: the synthetic outdoor population's raw traffic vectors.
	var req serve.ClassifyRequest
	for i := 0; i < ds.OutdoorTraffic.Rows() && i < 4; i++ {
		req.Antennas = append(req.Antennas, serve.AntennaVector{
			ID: uint32(i), Revision: 1, Traffic: ds.OutdoorTraffic.Row(i),
		})
	}
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	classifyPath := filepath.Join(dir, "classify.json")
	if err := os.WriteFile(classifyPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icnserve: wrote %s (%d records) and %s (%d antennas)\n",
		ingestPath, len(records), classifyPath, len(req.Antennas))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "icnserve: %v\n", err)
	os.Exit(1)
}
