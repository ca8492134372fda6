package forest

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rng"
)

// labeledBlobs builds a simple separable classification problem.
func labeledBlobs(classes, perClass, dims int, noise float64, seed uint64) (*mat.Dense, []int) {
	r := rng.New(seed)
	n := classes * perClass
	x := mat.NewDense(n, dims)
	y := make([]int, n)
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			idx := c*perClass + i
			y[idx] = c
			row := x.Row(idx)
			for d := range row {
				center := 0.0
				if d%classes == c {
					center = 3
				}
				row[d] = center + r.Normal()*noise
			}
		}
	}
	return x, y
}

func TestTreeFitsTrainingData(t *testing.T) {
	x, y := labeledBlobs(3, 30, 6, 0.4, 1)
	tree := BuildTree(x, y, nil, 3, TreeConfig{}, rng.New(2))
	correct := 0
	for i := 0; i < x.Rows(); i++ {
		if tree.Predict(x.Row(i)) == y[i] {
			correct++
		}
	}
	if correct != x.Rows() {
		t.Fatalf("unbounded tree should fit training data, got %d/%d", correct, x.Rows())
	}
}

func TestTreeDepthLimit(t *testing.T) {
	x, y := labeledBlobs(3, 30, 6, 0.8, 3)
	tree := BuildTree(x, y, nil, 3, TreeConfig{MaxDepth: 2}, rng.New(4))
	if d := tree.Depth(); d > 2 {
		t.Fatalf("depth %d exceeds limit", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	x, y := labeledBlobs(2, 25, 4, 0.8, 5)
	tree := BuildTree(x, y, nil, 2, TreeConfig{MinLeaf: 10}, rng.New(6))
	for _, n := range tree.Nodes {
		if n.Feature < 0 && n.Samples < 10 {
			t.Fatalf("leaf with %d samples under MinLeaf", n.Samples)
		}
	}
}

func TestTreeProbsSumToOne(t *testing.T) {
	x, y := labeledBlobs(3, 20, 4, 1.2, 7)
	tree := BuildTree(x, y, nil, 3, TreeConfig{MaxDepth: 3}, rng.New(8))
	for i := 0; i < x.Rows(); i++ {
		probs := tree.PredictProbs(x.Row(i))
		var sum float64
		for _, p := range probs {
			if p < 0 {
				t.Fatal("negative probability")
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs sum to %v", sum)
		}
	}
}

func TestTreePureLeafConstantLabels(t *testing.T) {
	x := mat.MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := []int{1, 1, 1}
	tree := BuildTree(x, y, nil, 2, TreeConfig{}, rng.New(1))
	if tree.LeafCount() != 1 || tree.Depth() != 0 {
		t.Fatal("constant labels should give a single leaf")
	}
	if tree.Predict([]float64{0, 0}) != 1 {
		t.Fatal("constant tree prediction")
	}
}

func TestTreeIdenticalFeatures(t *testing.T) {
	// No split possible when all feature vectors are identical.
	x := mat.MustFromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}})
	y := []int{0, 1, 0, 1}
	tree := BuildTree(x, y, nil, 2, TreeConfig{}, rng.New(1))
	if tree.LeafCount() != 1 {
		t.Fatal("identical features should yield a single mixed leaf")
	}
	probs := tree.PredictProbs([]float64{1, 1})
	if math.Abs(probs[0]-0.5) > 1e-9 {
		t.Fatalf("mixed leaf probs = %v", probs)
	}
}

func TestForestAccuracy(t *testing.T) {
	x, y := labeledBlobs(4, 40, 8, 0.7, 11)
	f := Train(x, y, 4, Config{Trees: 30, Seed: 1})
	if acc := f.Accuracy(x, y); acc < 0.97 {
		t.Fatalf("training accuracy %v", acc)
	}
	if math.IsNaN(f.OOBAccuracy) || f.OOBAccuracy < 0.9 {
		t.Fatalf("OOB accuracy %v", f.OOBAccuracy)
	}
}

func TestForestGeneralizes(t *testing.T) {
	xTrain, yTrain := labeledBlobs(3, 50, 6, 0.6, 13)
	xTest, yTest := labeledBlobs(3, 30, 6, 0.6, 14)
	f := Train(xTrain, yTrain, 3, Config{Trees: 40, Seed: 2})
	if acc := f.Accuracy(xTest, yTest); acc < 0.9 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestForestDeterministic(t *testing.T) {
	x, y := labeledBlobs(3, 20, 5, 0.8, 17)
	a := Train(x, y, 3, Config{Trees: 10, Seed: 5})
	b := Train(x, y, 3, Config{Trees: 10, Seed: 5})
	for i := 0; i < x.Rows(); i++ {
		pa := a.PredictProbs(x.Row(i))
		pb := b.PredictProbs(x.Row(i))
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatal("same seed should give identical forests")
			}
		}
	}
}

func TestForestSeedsDiffer(t *testing.T) {
	x, y := labeledBlobs(3, 20, 5, 1.5, 19)
	a := Train(x, y, 3, Config{Trees: 5, Seed: 1})
	b := Train(x, y, 3, Config{Trees: 5, Seed: 2})
	diff := false
	for i := 0; i < x.Rows() && !diff; i++ {
		pa := a.PredictProbs(x.Row(i))
		pb := b.PredictProbs(x.Row(i))
		for c := range pa {
			if pa[c] != pb[c] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical forests on noisy data")
	}
}

func TestForestProbsSumToOne(t *testing.T) {
	x, y := labeledBlobs(3, 20, 5, 1.0, 23)
	f := Train(x, y, 3, Config{Trees: 15, Seed: 3})
	for i := 0; i < x.Rows(); i++ {
		probs := f.PredictProbs(x.Row(i))
		var sum float64
		for _, p := range probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("forest probs sum %v", sum)
		}
	}
}

func TestForestPredictAll(t *testing.T) {
	x, y := labeledBlobs(2, 25, 4, 0.5, 29)
	f := Train(x, y, 2, Config{Trees: 10, Seed: 4})
	preds := f.PredictAll(x)
	if len(preds) != x.Rows() {
		t.Fatal("PredictAll length")
	}
	for i, p := range preds {
		if p != f.Predict(x.Row(i)) {
			t.Fatal("PredictAll disagrees with Predict")
		}
	}
}

func TestTrainPanicsOnBadLabels(t *testing.T) {
	x := mat.MustFromRows([][]float64{{1}, {2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Train(x, []int{0, 5}, 2, Config{Trees: 1})
}

func TestTrainPanicsOnLengthMismatch(t *testing.T) {
	x := mat.MustFromRows([][]float64{{1}, {2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Train(x, []int{0}, 1, Config{Trees: 1})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(73)
	if c.Trees != 100 {
		t.Fatalf("default trees %d, paper uses 100", c.Trees)
	}
	if c.Features != 9 { // round(sqrt(73)) = 9
		t.Fatalf("default features %d, want 9", c.Features)
	}
}

// Property: tree predictions always return a valid class for random data.
func TestTreeValidClassProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%30) + 5
		r := rng.New(seed)
		x := mat.NewDense(n, 4)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			y[i] = r.Intn(3)
			for j := 0; j < 4; j++ {
				x.Set(i, j, r.Normal())
			}
		}
		tree := BuildTree(x, y, nil, 3, TreeConfig{}, rng.New(seed+1))
		for i := 0; i < n; i++ {
			c := tree.Predict(x.Row(i))
			if c < 0 || c >= 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForestTrain(b *testing.B) {
	x, y := labeledBlobs(5, 60, 20, 0.8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Train(x, y, 5, Config{Trees: 20, Seed: 1})
	}
}

func BenchmarkForestPredict(b *testing.B) {
	x, y := labeledBlobs(5, 60, 20, 0.8, 1)
	f := Train(x, y, 5, Config{Trees: 50, Seed: 1})
	row := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(row)
	}
}

// TestTrainRejectsTooManyClasses: the split search keeps each bin's
// classes in a uint64 mask, so 65 classes are an error from TrainContext
// (and a panic from BuildTree), while 64 still train.
func TestTrainRejectsTooManyClasses(t *testing.T) {
	x, _ := labeledBlobs(2, 65, 3, 1, 4)
	y := make([]int, x.Rows())
	for i := range y {
		y[i] = i % 65
	}
	if f, err := TrainContext(context.Background(), x, y, 65, Config{Trees: 3}); err == nil || f != nil {
		t.Fatalf("TrainContext with 65 classes = %v, %v; want an error and no forest", f, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("BuildTree with 65 classes did not panic")
			}
		}()
		BuildTree(x, y, nil, 65, TreeConfig{}, rng.New(1))
	}()
	for i := range y {
		y[i] = i % 64
	}
	f, err := TrainContext(context.Background(), x, y, 64, Config{Trees: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := f.Accuracy(x, y); acc < 0.5 {
		t.Fatalf("64-class forest fits %v of its training rows", acc)
	}
}

// TestScoreMatchesSerialVotes checks the pooled scoring pass against the
// serial out-of-bag vote it replaced (every tree in order, each voting its
// leaf distribution for the rows its bootstrap left out) and against
// Accuracy on the training rows, bit for bit, on one and two workers.
// Depth-3 trees keep the leaves fractional, so a vote out of tree order
// would change bits.
func TestScoreMatchesSerialVotes(t *testing.T) {
	x, y := labeledBlobs(4, 60, 8, 2.5, 9)
	cfg := Config{Trees: 40, MaxDepth: 3, Seed: 17}
	for _, workers := range []int{1, 2} {
		ctx := pipe.WithPool(context.Background(), pipe.NewPool(workers))
		f, err := TrainContext(ctx, x, y, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Replay every tree's bootstrap draws from its pre-split seed.
		n := x.Rows()
		root := rng.New(cfg.Seed)
		votes := mat.NewDense(n, 4)
		seen := make([]bool, n)
		for _, tree := range f.Trees {
			r := root.Split()
			inBag := make([]bool, n)
			for range inBag {
				inBag[r.Intn(n)] = true
			}
			for i := 0; i < n; i++ {
				if inBag[i] {
					continue
				}
				seen[i] = true
				for c, p := range tree.PredictProbs(x.Row(i)) {
					votes.Row(i)[c] += p
				}
			}
		}
		correct, counted := 0, 0
		for i := 0; i < n; i++ {
			if seen[i] {
				counted++
				if argmax(votes.Row(i)) == y[i] {
					correct++
				}
			}
		}
		oob := float64(correct) / float64(counted)
		if math.Float64bits(f.OOBAccuracy) != math.Float64bits(oob) {
			t.Fatalf("workers %d: OOBAccuracy %v, serial vote %v", workers, f.OOBAccuracy, oob)
		}
		if acc := f.Accuracy(x, y); math.Float64bits(f.TrainAccuracy) != math.Float64bits(acc) {
			t.Fatalf("workers %d: TrainAccuracy %v, Accuracy %v", workers, f.TrainAccuracy, acc)
		}
		if f.OOBAccuracy == f.TrainAccuracy || f.OOBAccuracy == 1 {
			t.Fatalf("workers %d: OOB %v vs training %v; the fixture must tell the two votes apart", workers, f.OOBAccuracy, f.TrainAccuracy)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainContext(cancelled, x, y, 4, cfg); err != context.Canceled {
		t.Fatalf("TrainContext on a cancelled context returned %v, want context.Canceled", err)
	}
}
