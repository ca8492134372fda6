package forest

import "sync"

// growScratch holds the arenas the histogram tree grower reuses across
// every node of a build: the feature permutation, the per-bin class-count
// histogram and class masks, the per-row bootstrap multiplicities, the
// cumulative left/right counts of the boundary scan, the row arena that
// siblings partition in place instead of allocating fresh slices per
// node, and, on a retrain, the row stamps of the replay's row-set check
// and the buffers a recording build fills. One scratch belongs to one
// goroutine for the duration of a tree build (trees fan out over the
// shared internal/pipe pool, so this is per-worker state); between builds
// it is recycled through a sync.Pool.
// Every field is fully overwritten or zeroed before use, so recycling
// cannot leak state into results.
type growScratch struct {
	perm   []int           // feature permutation, len = nFeatures
	hist   []int           // per-bin class counts, len = MaxBins * classes
	mask   [MaxBins]uint64 // per-bin bitmask of the classes the fill saw
	mult   []int           // bootstrap multiplicity of every row, len = rows
	counts []int           // node class counts, len = classes
	left   []int           // cumulative class counts left of the candidate boundary
	right  []int           // class counts right of the candidate boundary
	idx    []int           // the tree's distinct rows, partitioned in place
	aux    []int           // right-half spill buffer of the stable partition
	stamp  []uint32        // per-row stamp of the replay's row-set check
	epoch  uint32          // the stamp of the latest row-set check
	rec    treeRecord      // a recording build's buffers, compacted per tree
}

var scratchPool = sync.Pool{New: func() any { return new(growScratch) }}

// getScratch returns a scratch with every arena sized for a build over
// rows training rows.
func getScratch(nFeatures, classes, rows int) *growScratch {
	s := scratchPool.Get().(*growScratch)
	s.perm = ensureLen(s.perm, nFeatures)
	// hist and mask keep an all-zero invariant between split searches
	// (the boundary scan re-zeroes exactly the entries the fill touched),
	// so a recycled arena large enough is reused as-is and a fresh one
	// starts zeroed by make.
	if cap(s.hist) < MaxBins*classes {
		s.hist = make([]int, MaxBins*classes)
	} else {
		s.hist = s.hist[:MaxBins*classes]
	}
	s.mult = ensureLen(s.mult, rows)
	s.counts = ensureLen(s.counts, classes)
	s.left = ensureLen(s.left, classes)
	s.right = ensureLen(s.right, classes)
	s.idx = ensureLen(s.idx, rows)
	s.aux = ensureLen(s.aux, rows)
	if cap(s.stamp) < rows {
		s.stamp, s.epoch = make([]uint32, rows), 0
	}
	s.stamp = s.stamp[:rows]
	return s
}

// nextStamp returns the stamp array and a stamp no row carries yet.
func (s *growScratch) nextStamp() ([]uint32, uint32) {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	return s.stamp, s.epoch
}

func putScratch(s *growScratch) { scratchPool.Put(s) }

// weigh collapses a bootstrap index list (nil = every row once) into its
// distinct rows, ascending, and sets mult[i] to how often row i was drawn
// (0 for every row not drawn). The distinct rows are returned as a prefix
// of the idx arena.
func (s *growScratch) weigh(idx []int) []int {
	mult := s.mult
	rows := s.idx[:0]
	if idx == nil {
		for i := range mult {
			mult[i] = 1
			rows = append(rows, i)
		}
		return rows
	}
	clear(mult)
	for _, i := range idx {
		mult[i]++
	}
	for i, m := range mult {
		if m != 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

func ensureLen(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
