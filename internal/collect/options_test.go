package collect

import (
	"context"
	"testing"
	"time"
)

// TestListenContextCanceled verifies the context-first entry point refuses
// to bind once its context is gone.
func TestListenContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ListenContext(ctx, "127.0.0.1:0"); err == nil {
		t.Fatal("ListenContext bound a listener under a canceled context")
	}
}

// TestUnifiedOptionSlice exercises the single-option-surface contract: one
// option slice mixing collector and exporter options is accepted by both
// entry points, with each reading only the fields that concern it.
func TestUnifiedOptionSlice(t *testing.T) {
	shared := NewSink()
	opts := []Option{
		WithReadTimeout(time.Second),
		WithSink(shared),
		WithDialRetry(2, 10*time.Millisecond),
		WithRetrySeed(7),
	}

	c, err := ListenContext(context.Background(), "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Sink() != shared {
		t.Fatal("collector ignored WithSink from the shared option slice")
	}
	if c.readLimit != time.Second {
		t.Fatalf("collector read limit = %v, want 1s", c.readLimit)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Serve(ctx) }()
	if err := Export(context.Background(), c.Addr().String(), sampleRecords(3), opts...); err != nil {
		t.Fatalf("Export with the shared option slice: %v", err)
	}
	waitForRecords(t, c, 3)
	cancel()
	<-errCh
}

// TestExportSeedDefaultsFromAddr pins the compatibility contract of the
// unification: without WithRetrySeed the jitter seed still derives from the
// target address, and an explicit zero seed is honored rather than being
// mistaken for "unset".
func TestExportSeedDefaultsFromAddr(t *testing.T) {
	st := defaultSettings()
	if st.export.seedSet {
		t.Fatal("seedSet should start false")
	}
	WithRetrySeed(0)(&st)
	if !st.export.seedSet || st.export.seed != 0 {
		t.Fatal("WithRetrySeed(0) should mark the seed as explicitly set")
	}
}
