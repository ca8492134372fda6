package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// readRecord decodes the JSON record a bench leg wrote.
func readRecord(t *testing.T, path string, rec any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, rec); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoak runs the seeded fault-injection soak once at a small shape:
// two fault schedules, the 50-swap storm and the 3-shard storm must all
// hold their invariants. The plan digest is a pure function of (seed,
// rules, schedules), computed before any I/O, so it is pinned: a change to
// the fault rules or the schedule seeding shows up here.
func TestChaosSoak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	cfg := analysis.Config{Seed: 7, Scale: 0.05, ForestTrees: 15}
	if err := runChaos(cfg, 2, 50, 3, path); err != nil {
		t.Fatal(err)
	}
	var rec chaosRecord
	readRecord(t, path, &rec)
	if rec.PlanDigest != "0x7fc17203a1e8507d" {
		t.Fatalf("chaos plan digest %s, want 0x7fc17203a1e8507d", rec.PlanDigest)
	}
	if len(rec.Schedules) != 2 || rec.SwapStorm == nil || rec.ShardStorm == nil {
		t.Fatalf("chaos record has %d schedules, swap storm %v, shard storm %v; want 2 and both storms",
			len(rec.Schedules), rec.SwapStorm != nil, rec.ShardStorm != nil)
	}
}
