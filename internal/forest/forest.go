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
	// TrainAccuracy is the fraction of training rows the ensemble
	// classifies as labelled, scored in the same pass as OOBAccuracy; it
	// equals Accuracy on the training set.
	TrainAccuracy float64
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
	f, _, err := train(ctx, x, y, classes, cfg, nil, false)
	return f, err
}

// train fits the forest of TrainContext. With record set it also returns
// the training's split record (nil where the shape cannot be recorded),
// and each tree replays its part of prev where prev allows.
func train(ctx context.Context, x *mat.Dense, y []int, classes int, cfg Config, prev *Record, record bool) (*Forest, *Record, error) {
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
	if classes > maxClasses {
		return nil, nil, fmt.Errorf("forest: %d classes, the split search supports at most %d", classes, maxClasses)
	}
	cfg = cfg.withDefaults(x.Cols())

	// Features are binned once per forest — the histogram split search of
	// every tree shares the read-only codes. Binning consumes no
	// randomness, so the sort-based reference grower in the tests stays
	// seed-compatible. A retrain starts each column's sort from the
	// previous record's codes, which leaves the binning as it is.
	var seed *mat.BinMatrix
	if prev != nil {
		seed = prev.codes
	}
	binned, err := binFeatures(ctx, x, seed)
	if err != nil {
		return nil, nil, err
	}
	treeCfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Features: cfg.Features}
	record = record && n <= maxRecordRows && x.Cols() <= maxRecordFeatures
	var rec *Record
	var changed []rowChange
	if record {
		rec = &Record{cfg: cfg, classes: classes, codes: binned.codes, trees: make([]treeRecord, cfg.Trees)}
		changed = changesSince(prev, cfg, classes, binned, y)
	}
	work := make([][2]int, cfg.Trees)
	f, err := bag(ctx, x, y, classes, cfg, func(t int, idx []int, r *rng.Source, leaves []int32) *Tree {
		g := &binGrow{x: x, bins: binned, y: y, classes: classes, cfg: treeCfg, r: r, changed: changed, leaves: leaves}
		if changed != nil {
			g.prev = &prev.trees[t]
		}
		tree, tr := g.build(idx, record)
		if record {
			rec.trees[t] = tr
			work[t] = [2]int{g.scanned, g.reused}
		}
		return tree
	})
	if err != nil || !record {
		return f, nil, err
	}
	for _, w := range work {
		rec.scanned += int64(w[0])
		rec.reused += int64(w[1])
	}
	rec.exact = make([]bool, x.Cols())
	for j := range rec.exact {
		rec.exact[j] = binned.feats[j].Exact
	}
	rec.labels = make([]uint8, n)
	for i, c := range y {
		rec.labels[i] = uint8(c)
	}
	return f, rec, nil
}

// Placement marks of the per-tree leaves slice bag hands its grower: a
// row no bootstrap draw took, and a drawn row whose leaf the grower did
// not record. A recorded row holds its leaf's arena index instead.
const (
	outOfBag int32 = -1
	inBag    int32 = -2
)

// bag trains cfg.Trees trees with grow, each on a bootstrap sample drawn
// from its own pre-split seed, and scores the ensemble out of bag and on
// its training rows. grow receives the tree's index and a slice that
// marks each row outOfBag or inBag; it may overwrite an inBag mark with
// the arena index of the leaf the row reached during growth, which spares
// score the row's walk through that tree.
func bag(ctx context.Context, x *mat.Dense, y []int, classes int, cfg Config, grow func(t int, idx []int, r *rng.Source, leaves []int32) *Tree) (*Forest, error) {
	n := x.Rows()
	root := rng.New(cfg.Seed)
	f := &Forest{Classes: classes}

	// Trees are independent given their seed, so they train in parallel on
	// the shared worker pool; seeds are pre-split sequentially so results
	// are identical to the serial order regardless of scheduling.
	seeds := make([]*rng.Source, cfg.Trees)
	for t := range seeds {
		seeds[t] = root.Split()
	}
	f.Trees = make([]*Tree, cfg.Trees)
	leaves := make([][]int32, cfg.Trees)

	err := pipe.FromContext(ctx).ForEach(ctx, cfg.Trees, func(t int) {
		r := seeds[t]
		idx := make([]int, n)
		leaf := make([]int32, n)
		for i := range leaf {
			leaf[i] = outOfBag
		}
		for i := range idx {
			s := r.Intn(n)
			idx[i] = s
			leaf[s] = inBag
		}
		f.Trees[t] = grow(t, idx, r, leaf)
		leaves[t] = leaf
	})
	if err != nil {
		return nil, err
	}
	if err := f.score(ctx, x, y, leaves); err != nil {
		return nil, err
	}
	return f, nil
}

// score sets OOBAccuracy and TrainAccuracy in one pass over the training
// rows, fanned out in blocks over the pool carried by ctx. Trees are the
// outer loop of a block, as in blockProbs. Each row sums every tree's leaf
// distribution, in tree order, into its full vote and, for each tree
// whose bag left the row out, into its out-of-bag vote. A row whose leaf
// the grower recorded in leaves reads it there, since the grower routed it
// with the x <= threshold test Tree.leaf applies; every other row walks
// the tree. The full vote is scaled by 1/T before its argmax as
// blockProbs does, so both verdicts carry the bits of a per-tree serial
// OOB vote and of PredictAll.
func (f *Forest) score(ctx context.Context, x *mat.Dense, y []int, leaves [][]int32) error {
	pool := pipe.FromContext(ctx)
	n := x.Rows()
	k := f.Classes
	size := blockRows(n, pool.Workers())
	pred := make([]int, n)
	oob := make([]int, n) // out-of-bag verdict, -1 where every bag drew the row
	err := pool.ForEach(ctx, (n+size-1)/size, func(b int) {
		lo := b * size
		hi := min(lo+size, n)
		full := make([]float64, (hi-lo)*k)
		votes := make([]float64, (hi-lo)*k)
		seen := make([]bool, hi-lo)
		for t, tree := range f.Trees {
			leaf := leaves[t]
			for r := lo; r < hi; r++ {
				l := int(leaf[r])
				if l < 0 {
					l = tree.leaf(x.Row(r))
				}
				p := tree.LeafProbs(l)
				a := full[(r-lo)*k : (r-lo+1)*k]
				for c, v := range p {
					a[c] += v
				}
				if leaf[r] == outOfBag {
					seen[r-lo] = true
					o := votes[(r-lo)*k : (r-lo+1)*k]
					for c, v := range p {
						o[c] += v
					}
				}
			}
		}
		inv := 1 / float64(len(f.Trees))
		for r := lo; r < hi; r++ {
			a := full[(r-lo)*k : (r-lo+1)*k]
			for c := range a {
				a[c] *= inv
			}
			pred[r] = argmax(a)
			oob[r] = -1
			if seen[r-lo] {
				oob[r] = argmax(votes[(r-lo)*k : (r-lo+1)*k])
			}
		}
	})
	if err != nil {
		return err
	}
	f.TrainAccuracy = agreement(pred, y)
	correct, counted := 0, 0
	for i, v := range oob {
		if v < 0 {
			continue
		}
		counted++
		if v == y[i] {
			correct++
		}
	}
	if counted == 0 {
		f.OOBAccuracy = math.NaN()
	} else {
		f.OOBAccuracy = float64(correct) / float64(counted)
	}
	return nil
}

// maxBlockRows caps the rows one predict block walks. 128 rows of the
// 73-service RSCA are 75 KB, which stays in L2 while each tree's nodes
// (a few KB at 24 bytes each) stay in L1.
const maxBlockRows = 128

// blockProbs sets acc[:(hi-lo)*Classes] to the ensemble-averaged class
// probabilities of rows [lo, hi) of x, Classes entries per row. Trees are
// the outer loop, so one tree's nodes stay cached across the block; each
// row still sums its leaf distributions from zero in tree order 0…T−1 and
// is then scaled by 1/T, so its bits equal a per-row sum.
func (f *Forest) blockProbs(x *mat.Dense, lo, hi int, acc []float64) {
	k := f.Classes
	acc = acc[:(hi-lo)*k]
	clear(acc)
	for _, t := range f.Trees {
		for r := lo; r < hi; r++ {
			a := acc[(r-lo)*k : (r-lo+1)*k]
			for c, p := range t.PredictProbs(x.Row(r)) {
				a[c] += p
			}
		}
	}
	inv := 1 / float64(len(f.Trees))
	for i := range acc {
		acc[i] *= inv
	}
}

// predictBlock writes the verdicts of rows [lo, hi) of x to out[lo:hi],
// with acc (at least (hi-lo)*Classes long) as scratch.
func (f *Forest) predictBlock(x *mat.Dense, lo, hi int, acc []float64, out []int) {
	f.blockProbs(x, lo, hi, acc)
	k := f.Classes
	for r := lo; r < hi; r++ {
		out[r] = argmax(acc[(r-lo)*k : (r-lo+1)*k])
	}
}

// blockRows sizes predict blocks so n rows spread over every one of
// workers, with at most maxBlockRows rows per block.
func blockRows(n, workers int) int {
	return max(1, min((n+workers-1)/workers, maxBlockRows))
}

// PredictProbs returns the ensemble-averaged class probabilities.
func (f *Forest) PredictProbs(x []float64) []float64 {
	probs := make([]float64, f.Classes)
	f.blockProbs(mat.RowVector(x), 0, 1, probs)
	return probs
}

// Predict returns the majority class for a sample.
func (f *Forest) Predict(x []float64) int {
	return argmax(f.PredictProbs(x))
}

// PredictAll classifies every row of x.
func (f *Forest) PredictAll(x *mat.Dense) []int {
	out, _ := f.PredictAllContext(context.Background(), x)
	return out
}

// PredictAllContext classifies every row of x, fanning blocks of rows out
// over the worker pool carried by ctx (pipe.FromContext) — the batch path
// the outdoor-comparison stage and the online classify handler share.
// Blocks are sized so a batch spans every pool worker; each block writes
// its own output slots, so the result is deterministic. A cancelled ctx
// stops the scan between blocks and returns ctx.Err().
func (f *Forest) PredictAllContext(ctx context.Context, x *mat.Dense) ([]int, error) {
	pool := pipe.FromContext(ctx)
	n := x.Rows()
	size := blockRows(n, pool.Workers())
	out := make([]int, n)
	if err := pool.ForEach(ctx, (n+size-1)/size, func(b int) {
		lo := b * size
		hi := min(lo+size, n)
		f.predictBlock(x, lo, hi, make([]float64, (hi-lo)*f.Classes), out)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Accuracy returns the fraction of rows of x whose prediction matches y.
// It runs the batch kernel serially, one block at a time.
func (f *Forest) Accuracy(x *mat.Dense, y []int) float64 {
	n := x.Rows()
	pred := make([]int, n)
	acc := make([]float64, min(n, maxBlockRows)*f.Classes)
	for lo := 0; lo < n; lo += maxBlockRows {
		f.predictBlock(x, lo, min(lo+maxBlockRows, n), acc, pred)
	}
	return agreement(pred, y)
}

// agreement returns the fraction of pred that matches y (0 when empty).
func agreement(pred, y []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}
