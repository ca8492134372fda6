package cluster

import (
	"reflect"
	"testing"

	"repro/internal/mat"
)

func denseFromRows(t *testing.T, rows [][]float64) *mat.Dense {
	t.Helper()
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCentroidsMeansAndEmptyClusters(t *testing.T) {
	x := denseFromRows(t, [][]float64{
		{0, 0}, {2, 4}, // cluster 0 → mean (1, 2)
		{10, 10}, // cluster 2 → itself
	})
	c := Centroids(x, []int{0, 0, 2}, 3)
	if got := c.Row(0); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("centroid 0 = %v", got)
	}
	if got := c.Row(1); !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Fatalf("empty centroid 1 = %v", got)
	}
	if got := c.Row(2); !reflect.DeepEqual(got, []float64{10, 10}) {
		t.Fatalf("centroid 2 = %v", got)
	}
}

func TestWarmAssignKeepsCleanRowsBitExact(t *testing.T) {
	x := denseFromRows(t, [][]float64{{0, 0}, {1, 1}, {9, 9}})
	cents := denseFromRows(t, [][]float64{{0, 0}, {10, 10}})
	prev := []int{0, 0, 1}
	wa := WarmAssign(x, cents, prev, nil)
	if !reflect.DeepEqual(wa.Labels, prev) {
		t.Fatalf("labels %v, want %v", wa.Labels, prev)
	}
	if wa.Drift != 0 || wa.Reassigned != 0 || wa.Added != 0 {
		t.Fatalf("clean assignment reported movement: %+v", wa)
	}
}

func TestWarmAssignMovesDirtyAndNewRows(t *testing.T) {
	x := denseFromRows(t, [][]float64{
		{0, 0},   // clean, stays 1 (previous label wins even if "wrong")
		{9, 9},   // dirty → centroid 1
		{0.5, 0}, // new row (no previous label) → centroid 0
	})
	cents := denseFromRows(t, [][]float64{{0, 0}, {10, 10}})
	prev := []int{1, 0}
	wa := WarmAssign(x, cents, prev, []int{1, 1, -5, 99}) // dups/out-of-range ignored
	if want := []int{1, 1, 0}; !reflect.DeepEqual(wa.Labels, want) {
		t.Fatalf("labels %v, want %v", wa.Labels, want)
	}
	if wa.Reassigned != 1 || wa.Added != 1 {
		t.Fatalf("moved counts %+v", wa)
	}
	if want := 2.0 / 3.0; wa.Drift != want {
		t.Fatalf("drift %v, want %v", wa.Drift, want)
	}
}

func TestWarmAssignTieBreaksToLowestCluster(t *testing.T) {
	x := denseFromRows(t, [][]float64{{5, 0}})
	cents := denseFromRows(t, [][]float64{{0, 0}, {10, 0}})
	wa := WarmAssign(x, cents, nil, nil)
	if wa.Labels[0] != 0 {
		t.Fatalf("equidistant row assigned to %d, want lowest index 0", wa.Labels[0])
	}
	if wa.Added != 1 || wa.Drift != 1 {
		t.Fatalf("new-row accounting %+v", wa)
	}
}
