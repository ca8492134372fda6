package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// the fault rules or the schedule seeding shows up here. So is the
// -chaosjson key set, object by object, so a renamed or dropped field
// shows up too.
func TestChaosSoak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	cfg := analysis.Config{Seed: 7, Scale: 0.05, ForestTrees: 15}
	if err := runChaos(cfg, 2, path); err != nil {
		t.Fatal(err)
	}
	var rec chaosRecord
	readRecord(t, path, &rec)
	if rec.PlanDigest != "0x7fc17203a1e8507d" {
		t.Fatalf("chaos plan digest %s, want 0x7fc17203a1e8507d", rec.PlanDigest)
	}
	if len(rec.Schedules) != 2 || rec.SwapStorm.Swaps < stormSwaps || rec.ShardStorm.Shards != stormShards {
		t.Fatalf("chaos record has %d schedules, %d storm swaps, %d storm shards; want 2, >= %d and %d",
			len(rec.Schedules), rec.SwapStorm.Swaps, rec.ShardStorm.Shards, stormSwaps, stormShards)
	}

	var raw struct {
		Schedules  []map[string]json.RawMessage `json:"schedules"`
		SwapStorm  map[string]json.RawMessage   `json:"swap_storm"`
		ShardStorm map[string]json.RawMessage   `json:"shard_storm"`
	}
	var top map[string]json.RawMessage
	readRecord(t, path, &raw)
	readRecord(t, path, &top)
	legs := "seed swaps classify_ok classify_shed injected_errs injected_delays "
	for _, c := range []struct {
		object string
		keys   map[string]json.RawMessage
		want   string
	}{
		{"top level", top, "seed scale trees plan_digest revision_a revision_b schedules swap_storm shard_storm"},
		{"schedule 0", raw.Schedules[0], legs + "digest acked_batches rejected_batches folded_records export_batches export_retries"},
		{"swap_storm", raw.SwapStorm, legs + "refreshes escalations revisions_seen"},
		{"shard_storm", raw.ShardStorm, legs + "shards replicas ring_digest acked_batches rejected_batches folded_records failovers revisions_seen"},
	} {
		var got []string
		for k := range c.keys {
			got = append(got, k)
		}
		want := strings.Fields(c.want)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("-chaosjson %s keys %v, want %v", c.object, got, want)
		}
	}
}
