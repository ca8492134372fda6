package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// tinyShape is the smoke test's model: small enough for seconds per run.
var tinyShape = shape{scale: 0.08, trees: 10, shards: 4, reps: 2, setups: 2}

// TestWorkloadsSmoke runs every workload untraced and traced on a tiny
// model and checks that each metric BENCHMARK.json names is printed with
// its unit, that every table row carries a unit, and that every audit
// passes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, trace := range []string{"0", "1"} {
			want := bs.EndToEnd
			if trace == "1" {
				want = bs.PerLayer
			}
			t.Run(sp.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				o := options{workload: sp.name, seed: 3, seconds: 4, trace: trace == "1", sh: tinyShape}
				if code := runOptions(o, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				checkTable(t, lines)
			})
		}
	}
}

// checkTable requires every row of the printed metric table to carry a
// value, a unit and a sample count.
func checkTable(t *testing.T, lines []string) {
	t.Helper()
	in, rows := false, 0
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		switch {
		case len(f) == 4 && f[0] == "metric" && f[2] == "unit":
			in = true
		case in && len(f) > 0 && strings.Contains(l, "FAILED"):
			t.Errorf("failure line: %s", l)
		case in && len(f) != 4:
			t.Errorf("table row without value, unit and count: %q", l)
		case in:
			rows++
		}
	}
	if rows == 0 {
		t.Errorf("no metric table printed")
	}
}
