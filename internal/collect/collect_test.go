package collect

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/services"
)

// startCollector launches a collector on an ephemeral port and returns it
// with its Serve error channel and cancel function.
func startCollector(t *testing.T) (*Collector, chan error, context.CancelFunc) {
	t.Helper()
	c, err := ListenContext(context.Background(), "127.0.0.1:0", WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Serve(ctx) }()
	return c, errCh, cancel
}

func waitForRecords(t *testing.T, c *Collector, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().Records >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d records (have %d)", want, c.Snapshot().Records)
}

func mkRecords(antenna uint32, hour uint32, mb map[int]float64, seed uint64) []probe.Record {
	perService := make([]float64, services.M)
	for j, v := range mb {
		perService[j] = v
	}
	return probe.GenerateSessions(hour, antenna, perService, rng.New(seed))
}

func TestSingleProbeRoundTrip(t *testing.T) {
	c, errCh, cancel := startCollector(t)
	recs := mkRecords(7, 3, map[int]float64{0: 5.0, 10: 1.25}, 1)
	if err := Export(context.Background(), c.Addr().String(), recs); err != nil {
		t.Fatal(err)
	}
	waitForRecords(t, c, len(recs))

	if got := c.TotalMB(7, 0); math.Abs(got-5.0) > 1e-4 {
		t.Fatalf("service 0 total %v, want 5.0", got)
	}
	if got := c.HourlyMB(7, 10, 3); math.Abs(got-1.25) > 1e-4 {
		t.Fatalf("service 10 hour 3 = %v, want 1.25", got)
	}
	st := c.Snapshot()
	if st.Connections != 1 || st.MalformedStreams != 0 {
		t.Fatalf("stats %+v", st)
	}

	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestManyConcurrentProbes(t *testing.T) {
	c, errCh, cancel := startCollector(t)
	defer func() {
		cancel()
		<-errCh
	}()

	const probes = 16
	var wg sync.WaitGroup
	total := 0
	var mu sync.Mutex
	for p := 0; p < probes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recs := mkRecords(uint32(p), uint32(p%24), map[int]float64{3: 2.0}, uint64(p+1))
			mu.Lock()
			total += len(recs)
			mu.Unlock()
			if err := Export(context.Background(), c.Addr().String(), recs); err != nil {
				t.Errorf("probe %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	waitForRecords(t, c, total)

	// Every antenna contributed exactly 2 MB of service 3.
	for p := 0; p < probes; p++ {
		if got := c.TotalMB(uint32(p), 3); math.Abs(got-2.0) > 1e-4 {
			t.Fatalf("antenna %d total %v", p, got)
		}
	}
	if st := c.Snapshot(); st.Connections != probes {
		t.Fatalf("connections %d, want %d", st.Connections, probes)
	}
}

func TestMalformedStreamIsolated(t *testing.T) {
	c, errCh, cancel := startCollector(t)
	defer func() {
		cancel()
		<-errCh
	}()

	// A garbage connection must be counted and must not poison later
	// aggregation.
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Snapshot().MalformedStreams == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Snapshot(); st.MalformedStreams != 1 {
		t.Fatalf("malformed streams %d, want 1", st.MalformedStreams)
	}

	recs := mkRecords(1, 0, map[int]float64{0: 1.0}, 3)
	if err := Export(context.Background(), c.Addr().String(), recs); err != nil {
		t.Fatal(err)
	}
	waitForRecords(t, c, len(recs))
	if got := c.TotalMB(1, 0); math.Abs(got-1.0) > 1e-4 {
		t.Fatalf("post-garbage aggregation broken: %v", got)
	}
}

func TestUnclassifiedTrafficCounted(t *testing.T) {
	c, errCh, cancel := startCollector(t)
	defer func() {
		cancel()
		<-errCh
	}()
	rec := probe.Record{
		Hour: 0, AntennaID: 9, Protocol: probe.TCP, ServerPort: 443,
		ServerName: "unknown.invalid", DownBytes: 3_000_000,
	}
	if err := Export(context.Background(), c.Addr().String(), []probe.Record{rec}); err != nil {
		t.Fatal(err)
	}
	waitForRecords(t, c, 1)
	if st := c.Snapshot(); math.Abs(st.UnclassifiedMB-3.0) > 1e-6 {
		t.Fatalf("unclassified %v, want 3.0", st.UnclassifiedMB)
	}
}

func TestExportEmpty(t *testing.T) {
	if err := Export(context.Background(), "127.0.0.1:1", nil); err != ErrNoRecords {
		t.Fatalf("want ErrNoRecords, got %v", err)
	}
}

func TestExportDialFailure(t *testing.T) {
	// Dial a port nothing listens on.
	recs := mkRecords(0, 0, map[int]float64{0: 1}, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := Export(context.Background(), addr, recs); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestExportContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := mkRecords(0, 0, map[int]float64{0: 1}, 1)
	err := Export(ctx, "127.0.0.1:1", recs)
	if err == nil {
		t.Fatal("expected error with canceled context")
	}
}

func TestGracefulShutdownWaitsForInFlight(t *testing.T) {
	c, errCh, cancel := startCollector(t)

	// Open a connection, send half a stream, then finish after shutdown
	// has begun: the collector must still aggregate everything.
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := probe.NewWriter(conn)
	recs := mkRecords(5, 1, map[int]float64{0: 4.0}, 7)
	half := len(recs) / 2
	for _, r := range recs[:half] {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForRecords(t, c, half)

	cancel() // listener closes; our open connection must keep draining

	for _, r := range recs[half:] {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if err := <-errCh; err != context.Canceled {
		t.Fatalf("Serve returned %v", err)
	}
	if got := c.TotalMB(5, 0); math.Abs(got-4.0) > 1e-4 {
		t.Fatalf("in-flight records lost: %v of 4.0 MB", got)
	}
	// New connections must be refused after shutdown.
	if _, err := net.DialTimeout("tcp", c.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestReadTimeoutDropsSilentConn(t *testing.T) {
	c, err := ListenContext(context.Background(), "127.0.0.1:0", WithReadTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Serve(ctx) }()
	defer func() {
		cancel()
		<-errCh
	}()

	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Stay silent; the collector should drop us as malformed/timed out.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().MalformedStreams >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("silent connection was not dropped")
}

func BenchmarkExportAggregate(b *testing.B) {
	c, err := ListenContext(context.Background(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Serve(ctx) }()
	defer func() {
		cancel()
		<-errCh
	}()
	recs := mkRecords(1, 0, map[int]float64{0: 50, 5: 20, 30: 10}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Export(context.Background(), c.Addr().String(), recs); err != nil {
			b.Fatal(err)
		}
	}
}
