package forest_test

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rca"
	"repro/internal/rng"
)

// ingestDrift adds records of mb megabytes each to traffic, every record
// landing on an (antenna, service) cell drawn in proportion to the cell's
// traffic: the drift perfbench's ingest_refresh workload folds between
// two refreshes (10,500 records of a few kB each).
func ingestDrift(traffic *mat.Dense, r *rng.Source, records int, mb float64) {
	cols := traffic.Cols()
	cum := make([]float64, 0, traffic.Rows()*cols)
	sum := 0.0
	for i := 0; i < traffic.Rows(); i++ {
		for _, v := range traffic.Row(i) {
			sum += v
			cum = append(cum, sum)
		}
	}
	for k := 0; k < records; k++ {
		c := sort.SearchFloat64s(cum, r.Float64()*sum)
		traffic.Row(c / cols)[c%cols] += mb
	}
}

const (
	// driftRecords and driftMB shape one ingest_refresh period's drift.
	driftRecords = 10500
	driftMB      = 0.0033
)

var (
	retrainOnce sync.Once
	retrainRes  *analysis.Result
	retrainErr  error
)

// retrainFixture is a scale-0.1 cold pipeline (477 indoor antennas, so
// both binning modes occur) with a 30-tree surrogate.
func retrainFixture(tb testing.TB) *analysis.Result {
	tb.Helper()
	retrainOnce.Do(func() {
		retrainRes, retrainErr = analysis.Run(analysis.Config{Seed: 1, Scale: 0.1, ForestTrees: 30})
	})
	if retrainErr != nil {
		tb.Fatal(retrainErr)
	}
	return retrainRes
}

// trainSet is one forest training's inputs.
type trainSet struct {
	x       *mat.Dense
	y       []int
	classes int
	cfg     forest.Config
}

func (s trainSet) record(t *testing.T) *forest.Record {
	t.Helper()
	_, rec, err := forest.RetrainContext(context.Background(), nil, s.x, s.y, s.classes, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// drifted returns base's RSCA after one ingest period's drift, seeded.
func drifted(base *analysis.Result, seed uint64) *mat.Dense {
	traffic := base.Dataset.Traffic.Clone()
	ingestDrift(traffic, rng.New(seed), driftRecords, driftMB)
	return rca.RSCA(traffic)
}

// TestRetrainMatchesTrain: whatever the previous record, RetrainContext
// returns TrainContext's forest on the new inputs — trees, thresholds,
// leaf distributions and both accuracies — and records what a full
// regrow records. Each case names how much it must replay.
func TestRetrainMatchesTrain(t *testing.T) {
	res := retrainFixture(t)
	cfg := surrogateConfig(res)
	base := trainSet{res.RSCA, res.Labels, res.K, cfg}
	baseRec := base.record(t)

	const (
		none = iota // every unit replayed
		some        // both scanned and replayed units
		all         // a full regrow: nothing replayed
	)
	// exactColumn is base.x with column 0 replaced by i mod 256: exactly
	// MaxBins distinct values, so the column bins exactly.
	exactColumn := func() *mat.Dense {
		x := base.x.Clone()
		for i := 0; i < x.Rows(); i++ {
			x.Row(i)[0] = float64(i % forest.MaxBins)
		}
		return x
	}
	cases := []struct {
		name string
		prev func(t *testing.T) *forest.Record
		next func(t *testing.T) trainSet
		want int
	}{
		{"no change", nil, func(*testing.T) trainSet { return base }, none},
		{"ingest drift", nil, func(*testing.T) trainSet {
			return trainSet{drifted(res, 5), base.y, base.classes, cfg}
		}, some},
		{"one relabelled row", nil, func(*testing.T) trainSet {
			y := append([]int(nil), base.y...)
			y[7] = (y[7] + 1) % base.classes
			return trainSet{base.x, y, base.classes, cfg}
		}, some},
		{"row moved across many bins", nil, func(*testing.T) trainSet {
			// Row 3 takes the features of the row farthest from it.
			x := base.x.Clone()
			far, farD := 0, -1.0
			for i := 0; i < x.Rows(); i++ {
				if d := mat.SqDist(x.Row(3), x.Row(i)); d > farD {
					far, farD = i, d
				}
			}
			copy(x.Row(3), base.x.Row(far))
			return trainSet{x, base.y, base.classes, cfg}
		}, some},
		{"column flips from exact to quantile bins", func(t *testing.T) *forest.Record {
			return trainSet{exactColumn(), base.y, base.classes, cfg}.record(t)
		}, func(t *testing.T) trainSet {
			x := exactColumn()
			x.Row(5)[0] = 1000.5 // a 257th distinct value
			if !forest.BinFeatures(exactColumn()).Feature(0).Exact || forest.BinFeatures(x).Feature(0).Exact {
				t.Fatal("column 0 must flip from exact to quantile bins")
			}
			return trainSet{x, base.y, base.classes, cfg}
		}, some},
		{"record from another config", nil, func(*testing.T) trainSet {
			c := cfg
			c.Seed++
			return trainSet{base.x, base.y, base.classes, c}
		}, all},
		{"record from another row count", nil, func(*testing.T) trainSet {
			n := base.x.Rows() - 1
			x := mat.NewDense(n, base.x.Cols())
			for i := 0; i < n; i++ {
				copy(x.Row(i), base.x.Row(i))
			}
			return trainSet{x, base.y[:n], base.classes, cfg}
		}, all},
		{"escalated refresh", nil, func(t *testing.T) trainSet {
			// Ten antennas take on another cluster's demand mix, past the
			// drift threshold: the warm pass re-runs the linkage and
			// relabels.
			traffic := res.Dataset.Traffic.Clone()
			n := traffic.Rows()
			var dirty []int
			for i := 0; len(dirty) < 10; i++ {
				if src := (i + n/2) % n; res.Labels[src] != res.Labels[i] {
					copy(traffic.Row(i), traffic.Row(src))
					dirty = append(dirty, i)
				}
			}
			warm, st, err := analysis.WarmRefresh(res, traffic, dirty, analysis.WarmConfig{DriftThreshold: 0.001})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Escalated {
				t.Fatalf("the refresh must escalate: %+v", st)
			}
			return trainSet{warm.RSCA, warm.Labels, warm.K, cfg}
		}, some},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := baseRec
			if tc.prev != nil {
				prev = tc.prev(t)
			}
			next := tc.next(t)
			got, rec, err := forest.RetrainContext(context.Background(), prev, next.x, next.y, next.classes, next.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := forest.TrainContext(context.Background(), next.x, next.y, next.classes, next.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the regrown forest diverges from a cold training")
			}
			fresh := next.record(t)
			if !forest.SameSplits(rec, fresh) {
				t.Fatal("the regrown forest's record diverges from a full regrow's")
			}
			scanned, reused := rec.Work()
			total, _ := fresh.Work()
			t.Logf("scanned %d, replayed %d of %d units", scanned, reused, total)
			if scanned+reused != total {
				t.Fatalf("scanned %d + replayed %d units, a full regrow scans %d", scanned, reused, total)
			}
			switch {
			case tc.want == none && scanned != 0,
				tc.want == some && (scanned == 0 || reused == 0),
				tc.want == all && reused != 0:
				t.Fatalf("scanned %d and replayed %d units, want %s", scanned, reused, [...]string{"no scan", "both", "no replay"}[tc.want])
			}
		})
	}
}

// TestRetrainWorkCountsIgnorePoolWidth: a retrain's work counters, like
// its forest, do not depend on how many workers grow the trees.
func TestRetrainWorkCountsIgnorePoolWidth(t *testing.T) {
	res := retrainFixture(t)
	cfg := surrogateConfig(res)
	prev := trainSet{res.RSCA, res.Labels, res.K, cfg}.record(t)
	x := drifted(res, 9)
	var work [][2]int64
	var forests []*forest.Forest
	for _, width := range []int{1, 2} {
		ctx := pipe.WithPool(context.Background(), pipe.NewPool(width))
		f, rec, err := forest.RetrainContext(ctx, prev, x, res.Labels, res.K, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scanned, reused := rec.Work()
		work = append(work, [2]int64{scanned, reused})
		forests = append(forests, f)
	}
	if work[0] != work[1] {
		t.Fatalf("work (scanned, replayed) %v on one worker, %v on two", work[0], work[1])
	}
	if !reflect.DeepEqual(forests[0], forests[1]) {
		t.Fatal("forests differ between one and two workers")
	}
}

// TestRetrainRecordBytes bounds one split record at the served shape (the
// scale-0.25 surrogate: 1,193 rows × 73 features, K = 9, 100 trees).
func TestRetrainRecordBytes(t *testing.T) {
	res := scaleFixture(t)
	_, rec, err := forest.RetrainContext(context.Background(), nil, res.RSCA, res.Labels, res.K, surrogateConfig(res))
	if err != nil {
		t.Fatal(err)
	}
	nodes, cands, improved := rec.RecordShape()
	const limit = 600_000
	t.Logf("record: %d B for %d searched nodes, %d candidates, %d improved", rec.Bytes(), nodes, cands, improved)
	if rec.Bytes() > limit {
		t.Fatalf("record holds %d B, above %d B", rec.Bytes(), limit)
	}
}

// FuzzRetrainMatchesTrain perturbs a small training set — relabelled rows,
// moved values, nudged values — and checks that regrowing from the
// unperturbed set's record gives the cold forest and the cold record.
func FuzzRetrainMatchesTrain(f *testing.F) {
	f.Add([]byte{0, 3, 1})
	f.Add([]byte{1, 10, 200, 2, 40, 7})
	f.Add([]byte{2, 0, 0, 2, 1, 1, 2, 2, 2})
	f.Add([]byte{1, 255, 0, 0, 128, 3, 2, 77, 250})
	const rows, cols, classes = 300, 5, 4
	r := rng.New(1)
	x := mat.NewDense(rows, cols)
	y := make([]int, rows)
	for i := 0; i < rows; i++ {
		y[i] = i % classes
		for j := 0; j < cols; j++ {
			x.Row(i)[j] = float64(y[i]) + 2*r.Float64()
		}
		x.Row(i)[cols-1] = float64(i % 40) // an exact column
	}
	cfg := forest.Config{Trees: 8, MaxDepth: 8, Seed: 3}
	ctx := context.Background()
	_, prev, err := forest.RetrainContext(ctx, nil, x, y, classes, cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		nx := x.Clone()
		ny := append([]int(nil), y...)
		for k := 0; k+2 < len(ops) && k < 60; k += 3 {
			row, v := int(ops[k+1])%rows, ops[k+2]
			col := int(v) % cols
			switch ops[k] % 3 {
			case 0:
				ny[row] = int(v) % classes
			case 1:
				nx.Row(row)[col] = float64(v) / 32
			case 2:
				nx.Row(row)[col] += 1e-9 * float64(v)
			}
		}
		got, rec, err := forest.RetrainContext(ctx, prev, nx, ny, classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := forest.TrainContext(ctx, nx, ny, classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, fresh, err := forest.RetrainContext(ctx, nil, nx, ny, classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the regrown forest diverges from a cold training")
		}
		if !forest.SameSplits(rec, fresh) {
			t.Fatal("the regrown record diverges from a full regrow's")
		}
	})
}
