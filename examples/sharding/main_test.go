package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestRun runs the example and checks the claims it prints: every acked
// record is folded with none pending, the ring lost exactly the killed
// shard, and both replicas are alive on the refreshed revision.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	t.Log("\n" + text)
	must := func(pattern string) []string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("output has no line matching %q", pattern)
		}
		return m
	}

	must(`(?m)^acked 1600 records, folded 1600, pending 0$`)
	must(`(?m)^killed shard 1: ring now 2/3 alive$`)
	revision := must(`(?m)^refresh: swapped=true revision=([0-9a-f]{16})$`)[1]

	replicas := regexp.MustCompile(`(?m)^replica (\d) \(.*\): alive=(\w+) revision=([0-9a-f]{16})$`).FindAllStringSubmatch(text, -1)
	if len(replicas) != 2 {
		t.Fatalf("output lists %d replicas, want 2", len(replicas))
	}
	for _, m := range replicas {
		if m[2] != "true" || m[3] != revision {
			t.Errorf("replica %s: alive=%s revision=%s, want alive on the refreshed %s", m[1], m[2], m[3], revision)
		}
	}
}
