package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	icn "repro"
)

// TestRun runs the example and checks the numbers it prints against an
// independent run of the same deployment: each cluster's indoor share
// (from Result.Labels) and outdoor share (Result.OutdoorShare), the two
// normalized entropies, and the cluster-1 outdoor share.
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
	indoor := make([]float64, res.K)
	for _, l := range res.Labels {
		indoor[l]++
	}
	for c := range indoor {
		indoor[c] /= float64(len(res.Labels))
	}
	want := []string{
		fmt.Sprintf("demand diversity (normalized entropy): indoor %.2f, outdoor %.2f",
			normalizedEntropy(indoor), normalizedEntropy(res.OutdoorShare)),
		fmt.Sprintf("outdoor antennas in the general-use cluster 1: %.0f%% (paper: ~70%%)", res.OutdoorShare[1]*100),
	}
	for c := 0; c < res.K; c++ {
		want = append(want, fmt.Sprintf("cluster %d   %5.1f%%   %5.1f%%", c, indoor[c]*100, res.OutdoorShare[c]*100))
	}
	for _, line := range want {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("output lacks %q", line)
		}
	}
}

// normalizedEntropy is the reference the example's entropy is checked
// against: −Σ p ln p over the non-zero shares, divided by ln k.
func normalizedEntropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h / math.Log(float64(len(p)))
}
