package collect

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/probe"
)

func sampleRecords(n int) []probe.Record {
	recs := make([]probe.Record, n)
	for i := range recs {
		recs[i] = probe.Record{
			Hour: uint32(i % 24), AntennaID: 1, Protocol: probe.TCP,
			ServerPort: 443, ServerName: "netflix.example",
			DownBytes: 1 << 20, UpBytes: 1 << 16,
		}
	}
	return recs
}

// TestExportRetrySurvivesLateCollector reserves a port, starts the export
// against it while nothing is listening, then brings a collector up: the
// retry budget must absorb the refused dials.
func TestExportRetrySurvivesLateCollector(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; dials now get refused

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	var exportErr error
	go func() {
		defer wg.Done()
		exportErr = Export(ctx, addr, sampleRecords(10),
			WithDialRetry(8, 20*time.Millisecond), WithRetrySeed(1))
	}()

	// Let at least one dial fail before the collector appears.
	time.Sleep(50 * time.Millisecond)
	c, err := ListenContext(context.Background(), addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	srvCtx, stop := context.WithCancel(context.Background())
	var srv sync.WaitGroup
	srv.Add(1)
	go func() {
		defer srv.Done()
		_ = c.Serve(srvCtx)
	}()

	wg.Wait()
	if exportErr != nil {
		t.Fatalf("export with retry budget failed: %v", exportErr)
	}
	// Wait for the collector to fold the stream.
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Records < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	srv.Wait()
	if got := c.Snapshot().Records; got != 10 {
		t.Fatalf("collector aggregated %d records, want 10", got)
	}
}

// TestExportRetryBudgetExhausted verifies a dead endpoint still fails after
// the budget, and that the error reports the attempt count.
func TestExportRetryBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	err = Export(context.Background(), addr, sampleRecords(1),
		WithDialRetry(2, 10*time.Millisecond), WithRetrySeed(7))
	if err == nil {
		t.Fatal("export to dead endpoint should fail")
	}
	// 2 retries at ≥10ms and ≥20ms backoff: at least ~30ms elapsed.
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("retries returned too fast (%v): backoff not applied", elapsed)
	}
}

// TestBackoffDelayLargeBudgetNoOverflow is the regression test for the
// exponential-backoff overflow: base << attempt wraps int64 negative once
// attempt is large (attempt ≥ 63, and much earlier for millisecond bases),
// which turned the sleep into a zero-length busy retry. The clamped
// computation must stay at the cap for every attempt in a large budget.
func TestBackoffDelayLargeBudgetNoOverflow(t *testing.T) {
	base := 20 * time.Millisecond
	maxD := 8 * base
	prev := time.Duration(0)
	for attempt := 0; attempt < 500; attempt++ {
		d := backoffDelay(base, maxD, attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v (overflow)", attempt, d)
		}
		if d > maxD {
			t.Fatalf("attempt %d: delay %v exceeds maxD %v", attempt, d, maxD)
		}
		if d < prev {
			t.Fatalf("attempt %d: delay %v shrank from %v", attempt, d, prev)
		}
		prev = d
	}
	if got := backoffDelay(base, maxD, 3); got != maxD {
		t.Fatalf("attempt 3 delay %v, want maxD %v (8·base)", got, maxD)
	}
	if got := backoffDelay(base, maxD, 1); got != 2*base {
		t.Fatalf("attempt 1 delay %v, want %v", got, 2*base)
	}
	// A zero maxDelay (WithDialRetry with base 0 keeps the default base and
	// no explicit cap) must still be capped at 8·base, not uncapped.
	if got := backoffDelay(base, 0, 400); got != maxD {
		t.Fatalf("uncapped config: attempt 400 delay %v, want default cap %v", got, maxD)
	}
}

// TestExportSurvivesInjectedDialRefusals drives the exporter through the
// fault layer's dialer: with a 60% refusal rate and a healthy retry
// budget, the export must land every record on a live collector.
func TestExportSurvivesInjectedDialRefusals(t *testing.T) {
	c, err := ListenContext(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvCtx, stop := context.WithCancel(context.Background())
	var srv sync.WaitGroup
	srv.Add(1)
	go func() {
		defer srv.Done()
		_ = c.Serve(srvCtx)
	}()

	inj := fault.New(11, map[fault.Site]fault.Rule{fault.Dial: {ErrProb: 0.6}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := Export(ctx, c.Addr().String(), sampleRecords(10),
		WithDialRetry(16, time.Millisecond), WithRetrySeed(2),
		WithDialContext(inj.Dialer(nil))); err != nil {
		t.Fatalf("export through faulty dialer: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Records < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	srv.Wait()
	if got := c.Snapshot().Records; got != 10 {
		t.Fatalf("collector aggregated %d records, want 10", got)
	}
}

// TestExportRetryHonorsCancel checks a canceled context aborts the backoff
// sleep promptly instead of burning the remaining budget.
func TestExportRetryHonorsCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Export(ctx, addr, sampleRecords(1), WithDialRetry(10, time.Second))
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled export should fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("export did not honor cancellation during backoff")
	}
}
