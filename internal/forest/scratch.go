package forest

import "sync"

// growScratch holds the arenas the histogram tree grower reuses across
// every node of a build: the feature permutation, the per-bin class-count
// histogram, the node's present classes, the cumulative left/right counts
// of the boundary scan, and the sample-index arena that siblings partition
// in place instead of allocating fresh slices per node. One scratch
// belongs to one goroutine for the duration of a tree build (trees fan out
// over the shared internal/pipe pool, so this is per-worker state);
// between builds it is recycled through a sync.Pool. Every field is fully overwritten or
// zeroed before use, so recycling cannot leak state into results.
type growScratch struct {
	perm    []int // feature permutation, len = nFeatures
	hist    []int // per-bin class counts, len = MaxBins * classes
	counts  []int // node class counts, len = classes
	present []int // classes with a nonzero node count, cap = classes
	left    []int // cumulative class counts left of the candidate boundary
	right   []int // class counts right of the candidate boundary
	idx     []int // root sample-index arena, partitioned in place
	aux     []int // right-half spill buffer of the stable partition
}

var scratchPool = sync.Pool{New: func() any { return new(growScratch) }}

// getScratch returns a scratch with every arena sized for the given build.
func getScratch(nFeatures, classes, n int) *growScratch {
	s := scratchPool.Get().(*growScratch)
	s.perm = ensureLen(s.perm, nFeatures)
	// hist keeps an all-zero invariant between split searches (the
	// boundary scan re-zeroes exactly the entries the fill touched), so a
	// recycled arena large enough is reused as-is and a fresh one starts
	// zeroed by make.
	if cap(s.hist) < MaxBins*classes {
		s.hist = make([]int, MaxBins*classes)
	} else {
		s.hist = s.hist[:MaxBins*classes]
	}
	s.counts = ensureLen(s.counts, classes)
	s.present = ensureLen(s.present, classes)
	s.left = ensureLen(s.left, classes)
	s.right = ensureLen(s.right, classes)
	s.idx = ensureLen(s.idx, n)
	s.aux = ensureLen(s.aux, n)
	return s
}

func putScratch(s *growScratch) { scratchPool.Put(s) }

func ensureLen(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
