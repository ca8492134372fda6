package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	icn "repro"
)

// TestRun runs the example and checks what it prints against the dataset
// it scans: the venue count and the scheduled event days come from the
// generator's calendar (Antenna.Events), the first venue's bursts are
// marked by that calendar, and precision and recall agree with the
// printed TP/FP/FN counts.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	t.Log("\n" + text)

	ds := icn.GenerateDataset(datasetConfig)
	venues, eventDays := 0, 0
	firstVenue := -1
	for i, a := range ds.Indoor {
		if !eventVenue(a) {
			continue
		}
		if firstVenue < 0 {
			firstVenue = i
		}
		venues++
		days := map[int]bool{}
		for _, ev := range a.Events() {
			for d := ev.FirstDay; d <= ev.LastDay; d++ {
				days[d] = true
			}
		}
		eventDays += len(days)
	}
	if venues == 0 {
		t.Fatal("the campaign has no event venue")
	}
	if line := fmt.Sprintf("scanned %d event venues\n", venues); !strings.Contains(text, line) {
		t.Errorf("output lacks %q", line)
	}

	var precision, recall float64
	var tp, fp, fn int
	summary := text[strings.Index(text, "event-day detection:"):]
	if _, err := fmt.Sscanf(summary, "event-day detection: precision %f, recall %f (%d TP / %d FP / %d FN)",
		&precision, &recall, &tp, &fp, &fn); err != nil {
		t.Fatalf("summary line %q: %v", summary, err)
	}
	if tp+fn != eventDays {
		t.Errorf("TP + FN = %d, the calendar schedules %d event days", tp+fn, eventDays)
	}
	if got := fmt.Sprintf("%.2f %.2f", precision, recall); got != fmt.Sprintf("%.2f %.2f",
		float64(tp)/float64(tp+fp), float64(tp)/float64(tp+fn)) {
		t.Errorf("precision and recall %s disagree with %d TP / %d FP / %d FN", got, tp, fp, fn)
	}
	// The example's claim: every scheduled event day stands out as a burst.
	if fn != 0 {
		t.Errorf("%d scheduled event days were missed", fn)
	}

	// The first venue's listing: one line per detected day, in date order,
	// each marked by the calendar.
	a := ds.Indoor[firstVenue]
	if line := fmt.Sprintf("example venue %s (%s):\n", a.Name, a.Env); !strings.HasPrefix(text, line) {
		t.Errorf("output does not open with %q", line)
	}
	scheduled := map[int]bool{}
	for _, ev := range a.Events() {
		for d := ev.FirstDay; d <= ev.LastDay; d++ {
			scheduled[d] = true
		}
	}
	detected := detectBurstDays(ds.HourlyTotals(a), burstThreshold)
	var want strings.Builder
	for d := 0; d < ds.Cal.Days(); d++ {
		if !detected[d] {
			continue
		}
		marker := "UNEXPECTED"
		if scheduled[d] {
			marker = "matches scheduled event"
		}
		fmt.Fprintf(&want, "  burst on %s — %s\n", ds.Cal.DateString(d), marker)
	}
	if !strings.Contains(text, want.String()+"\n") {
		t.Errorf("first venue's bursts:\n%s\nwant:\n%s", text, want.String())
	}
}
