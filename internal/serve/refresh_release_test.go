//go:build go1.24

package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/forest"
)

// TestRefresherReleasesColdResult: once the first refresh supersedes the
// cold result, the refresher must not keep its surrogate (or anything
// else only the full result holds) alive. The caller's own references
// are dropped inside coldRefresher, so after the swap only the
// refresher's registry could still reach the cold forest.
func TestRefresherReleasesColdResult(t *testing.T) {
	s, ref, forest := coldRefresher(t)
	defer ref.Stop()
	s.Ingest().Fold(ingestRecords(300))
	out, err := ref.RefreshOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Swapped {
		t.Fatalf("refresh over new aggregates must swap: %+v", out)
	}
	runtime.GC()
	if forest.Value() != nil {
		t.Fatal("the cold result's surrogate is still reachable after the first swap")
	}
}

// coldRefresher serves a private cold result (the shared golden fixture
// stays reachable from its cache) and wires a refresher to it, returning
// only a weak pointer to its surrogate.
func coldRefresher(t *testing.T) (*Server, *Refresher, weak.Pointer[forest.Forest]) {
	t.Helper()
	res := servedShapeResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return s, ref, weak.Make(res.Surrogate)
}
