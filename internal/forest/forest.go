package forest

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rng"
)

// Config parameterizes random forest training.
type Config struct {
	// Trees is the ensemble size; the paper's surrogate uses 100.
	Trees int
	// MaxDepth limits each tree (0 = unlimited).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// Features per split; 0 selects round(sqrt(M)).
	Features int
	// Seed drives bootstrap sampling and feature subsampling.
	Seed uint64
}

func (c Config) withDefaults(nFeatures int) Config {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 1
	}
	if c.Features <= 0 {
		c.Features = int(math.Round(math.Sqrt(float64(nFeatures))))
		if c.Features < 1 {
			c.Features = 1
		}
	}
	return c
}

// Forest is a trained random forest classifier.
type Forest struct {
	Trees   []*Tree
	Classes int
	// OOBAccuracy is the out-of-bag accuracy estimated during training
	// (NaN if no sample was ever out of bag).
	OOBAccuracy float64
}

// Train fits a random forest on the rows of x with labels y in
// [0, classes). Identical configs yield identical forests.
func Train(x *mat.Dense, y []int, classes int, cfg Config) *Forest {
	f, _ := TrainContext(context.Background(), x, y, classes, cfg)
	return f
}

// TrainContext is Train with cooperative cancellation: tree training runs
// on the shared worker pool and stops claiming new trees once ctx is
// cancelled, returning ctx.Err() and no forest.
func TrainContext(ctx context.Context, x *mat.Dense, y []int, classes int, cfg Config) (*Forest, error) {
	n := x.Rows()
	if len(y) != n {
		//lint:allow nopanic paired features and labels derive from one training set
		panic(fmt.Sprintf("forest: %d labels for %d rows", len(y), n))
	}
	for i, c := range y {
		if c < 0 || c >= classes {
			//lint:allow nopanic labels are produced by the clustering stage, not external input
			panic(fmt.Sprintf("forest: label %d out of range at row %d", c, i))
		}
	}
	cfg = cfg.withDefaults(x.Cols())

	// Features are binned once per forest — the histogram split search of
	// every tree shares the read-only codes. Binning consumes no
	// randomness, so the sort-based reference grower in the tests stays
	// seed-compatible.
	binned, err := BinFeaturesContext(ctx, x)
	if err != nil {
		return nil, err
	}
	treeCfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Features: cfg.Features}
	return bag(ctx, x, y, classes, cfg, func(idx []int, r *rng.Source) *Tree {
		return buildTreeBinned(x, binned, y, idx, classes, treeCfg, r)
	})
}

// bag trains cfg.Trees trees with grow, each on a bootstrap sample drawn
// from its own pre-split seed, and scores the ensemble out of bag.
func bag(ctx context.Context, x *mat.Dense, y []int, classes int, cfg Config, grow func(idx []int, r *rng.Source) *Tree) (*Forest, error) {
	n := x.Rows()
	root := rng.New(cfg.Seed)
	f := &Forest{Classes: classes}
	oobVotes := mat.NewDense(n, classes)
	oobSeen := make([]bool, n)

	// Trees are independent given their seed, so they train in parallel on
	// the shared worker pool; seeds are pre-split sequentially so results
	// are identical to the serial order regardless of scheduling.
	seeds := make([]*rng.Source, cfg.Trees)
	for t := range seeds {
		seeds[t] = root.Split()
	}
	f.Trees = make([]*Tree, cfg.Trees)
	inBags := make([][]bool, cfg.Trees)

	err := pipe.FromContext(ctx).ForEach(ctx, cfg.Trees, func(t int) {
		r := seeds[t]
		idx := make([]int, n)
		inBag := make([]bool, n)
		for i := range idx {
			s := r.Intn(n)
			idx[i] = s
			inBag[s] = true
		}
		f.Trees[t] = grow(idx, r)
		inBags[t] = inBag
	})
	if err != nil {
		return nil, err
	}

	// Out-of-bag voting, accumulated serially for determinism.
	for t, tree := range f.Trees {
		inBag := inBags[t]
		for i := 0; i < n; i++ {
			if inBag[i] {
				continue
			}
			oobSeen[i] = true
			probs := tree.PredictProbs(x.Row(i))
			row := oobVotes.Row(i)
			for c, p := range probs {
				row[c] += p
			}
		}
	}

	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		if !oobSeen[i] {
			continue
		}
		counted++
		best, bestV := 0, math.Inf(-1)
		for c, v := range oobVotes.Row(i) {
			if v > bestV {
				bestV = v
				best = c
			}
		}
		if best == y[i] {
			correct++
		}
	}
	if counted == 0 {
		f.OOBAccuracy = math.NaN()
	} else {
		f.OOBAccuracy = float64(correct) / float64(counted)
	}
	return f, nil
}

// PredictProbs returns the ensemble-averaged class probabilities.
func (f *Forest) PredictProbs(x []float64) []float64 {
	probs := make([]float64, f.Classes)
	for _, t := range f.Trees {
		for c, p := range t.PredictProbs(x) {
			probs[c] += p
		}
	}
	inv := 1 / float64(len(f.Trees))
	for c := range probs {
		probs[c] *= inv
	}
	return probs
}

// Predict returns the majority class for a sample.
func (f *Forest) Predict(x []float64) int {
	probs := f.PredictProbs(x)
	best, bestP := 0, math.Inf(-1)
	for c, p := range probs {
		if p > bestP {
			bestP = p
			best = c
		}
	}
	return best
}

// PredictAll classifies every row of x.
func (f *Forest) PredictAll(x *mat.Dense) []int {
	out, _ := f.PredictAllContext(context.Background(), x)
	return out
}

// PredictAllContext classifies every row of x, fanning rows out over the
// worker pool carried by ctx (pipe.FromContext) — the batch path the
// outdoor-comparison stage and the online classify handler share. Each
// row writes its own output slot, so the result is deterministic. A
// cancelled ctx stops the scan and returns ctx.Err().
func (f *Forest) PredictAllContext(ctx context.Context, x *mat.Dense) ([]int, error) {
	out := make([]int, x.Rows())
	if err := pipe.FromContext(ctx).ForEach(ctx, x.Rows(), func(i int) {
		out[i] = f.Predict(x.Row(i))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Accuracy returns the fraction of rows of x whose prediction matches y.
func (f *Forest) Accuracy(x *mat.Dense, y []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < x.Rows(); i++ {
		if f.Predict(x.Row(i)) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows())
}
