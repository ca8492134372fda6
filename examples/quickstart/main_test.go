package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	icn "repro"
)

// TestRun runs the example and checks the numbers it prints against the
// library calls that compute them on an independent run of the same
// deployment: cluster sizes, purity, ARI and the general-use share.
func TestRun(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	t.Log("\n" + text)

	res, err := icn.Run(ctx, config)
	if err != nil {
		t.Fatal(err)
	}
	sizes, total := res.ClusterSizes(), 0
	for _, n := range sizes {
		total += n
	}
	if total != len(res.Dataset.Indoor) || len(sizes) != res.K {
		t.Fatalf("cluster sizes %v do not partition %d antennas into k=%d", sizes, len(res.Dataset.Indoor), res.K)
	}
	for _, line := range []string{
		fmt.Sprintf("indoor antennas: %d across %d sites", len(res.Dataset.Indoor), res.Dataset.Sites),
		fmt.Sprintf("clusters (k=%d): sizes %v", res.K, sizes),
		fmt.Sprintf("purity vs hidden archetypes: %.3f (ARI %.3f)", res.Purity(), res.AdjustedRandIndex()),
		fmt.Sprintf("outdoor antennas in the general-use cluster: %.0f%%", res.OutdoorShare[1]*100),
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("output lacks %q", line)
		}
	}
	if n := strings.Count(text, "\n  "); n != res.K {
		t.Errorf("output lists %d cluster profiles, want k=%d", n, res.K)
	}
}
