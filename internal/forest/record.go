package forest

import (
	"context"

	"repro/internal/mat"
)

// Record is the split record of one forest training: for every tree, the
// nodes that searched for a split, the rows each held, the candidate
// features each drew and what scanning each candidate found. It also keeps
// the inputs those outcomes derive from — the bin codes, the binning mode
// of every feature and the labels — so that RetrainContext can tell which
// (node, feature) scans the next training may replay instead of running.
// A record is read-only once returned; it does not reference the forest.
type Record struct {
	cfg     Config // with defaults applied
	classes int
	codes   *mat.BinMatrix
	exact   []bool
	labels  []uint8
	trees   []treeRecord
	// scanned and reused count the row-feature units the training that
	// produced the record scanned and replayed.
	scanned, reused int64
}

// Work returns the row-feature units the training that produced r scanned
// and the units it replayed from its previous record: per candidate
// feature of every node that searched, the node's distinct rows.
func (r *Record) Work() (scanned, reused int64) { return r.scanned, r.reused }

// treeRecord is one tree's part of a Record, in exact-length slices.
type treeRecord struct {
	// rows is the tree's final row arena: every searched node's distinct
	// rows are the contiguous range rows[lo : lo+n].
	rows []uint16
	// nodes lists the searched nodes in pre-order, so the root is 0.
	nodes []recNode
	// cands holds each node's candidates in draw order, one byte each:
	// the feature, with improvedBit set when its scan raised the node's
	// running best gain.
	cands []uint8
	// gains and bins hold, per improved candidate in order, the best gain
	// its scan reached and that boundary's bin pair (lo, hi). A candidate
	// that did not improve stores nothing: its gains were at most the
	// running best it entered with, the gain of the node's last improved
	// candidate before it (or the 1e-12 floor).
	gains []float64
	bins  []uint8
}

// recNode is one searched node of a treeRecord.
type recNode struct {
	// left and right are the record indices of the children that
	// searched, -1 where a child did not (or the node did not split).
	left, right int32
	// gain indexes the node's first improved candidate in gains.
	gain int32
	// lo and n locate the node's distinct rows in rows.
	lo, n uint16
}

const (
	// improvedBit marks an improved candidate in treeRecord.cands.
	improvedBit = 1 << 7
	// maxRecordFeatures is the most features a record holds: a feature
	// id must fit the 7 bits beside improvedBit, and rowChange keeps its
	// last bit for labels.
	maxRecordFeatures = 127
	// maxRecordRows is the most rows a record holds: rows and node
	// ranges are uint16.
	maxRecordRows = 1<<16 - 1
	// labelBit marks a row whose label changed in its rowChange.
	labelBit = 127
)

// rowChange marks what changed for one training row since a record was
// taken: bit f for a feature whose bin code moved, labelBit for the label.
type rowChange [2]uint64

func (m *rowChange) has(bit int) bool { return m[bit>>6]&(1<<(bit&63)) != 0 }

func (m *rowChange) set(bit int) { m[bit>>6] |= 1 << (bit & 63) }

// reset empties the record buffers for a new tree, keeping their arenas.
func (t *treeRecord) reset() {
	t.rows, t.nodes, t.cands = t.rows[:0], t.nodes[:0], t.cands[:0]
	t.gains, t.bins = t.gains[:0], t.bins[:0]
}

// addNode appends a searched node over the n rows at lo of the row arena
// and returns its record index.
func (t *treeRecord) addNode(lo, n int) int32 {
	t.nodes = append(t.nodes, recNode{left: -1, right: -1, gain: int32(len(t.gains)), lo: uint16(lo), n: uint16(n)})
	return int32(len(t.nodes) - 1)
}

// addCandidate appends the outcome of one candidate's scan: whether it
// improved the running best and, if so, the gain and bins it reached. A
// nil record (a build that does not record) ignores it.
func (t *treeRecord) addCandidate(f int, improved bool, gain float64, lo, hi int) {
	if t == nil {
		return
	}
	c := uint8(f)
	if improved {
		c |= improvedBit
		t.gains = append(t.gains, gain)
		t.bins = append(t.bins, uint8(lo), uint8(hi))
	}
	t.cands = append(t.cands, c)
}

// compact copies the buffers and the final row arena rows into a fresh
// record of exact-length slices.
func (t *treeRecord) compact(rows []int) treeRecord {
	out := treeRecord{
		rows:  make([]uint16, len(rows)),
		nodes: make([]recNode, len(t.nodes)),
		cands: make([]uint8, len(t.cands)),
		gains: make([]float64, len(t.gains)),
		bins:  make([]uint8, len(t.bins)),
	}
	for i, r := range rows {
		out.rows[i] = uint16(r)
	}
	copy(out.nodes, t.nodes)
	copy(out.cands, t.cands)
	copy(out.gains, t.gains)
	copy(out.bins, t.bins)
	return out
}

// RetrainContext is TrainContext that also returns the training's split
// record, and replays prev, the record of an earlier training, where it
// can. The forest is bit-identical to TrainContext's on the same inputs;
// prev only decides how much of it is scanned rather than replayed. A
// (node, feature) scan is replayed when the previous tree's node on the
// same path held the same rows and drew the same candidates, and none of
// those rows changed that feature's bin code or its label (see bestSplit).
// A nil prev, or one taken under another config, class count or matrix
// shape, regrows every tree in full. A matrix of 65,536 rows or more, or
// more than 127 features, is not recorded: the record comes back nil.
func RetrainContext(ctx context.Context, prev *Record, x *mat.Dense, y []int, classes int, cfg Config) (*Forest, *Record, error) {
	return train(ctx, x, y, classes, cfg, prev, true)
}

// changesSince returns, per row, what changed between the training prev
// recorded and the inputs bins and y; a feature whose binning mode
// flipped counts as changed for every row. It returns nil when prev is
// nil or cannot be replayed at all.
func changesSince(prev *Record, cfg Config, classes int, bins *Binning, y []int) []rowChange {
	if prev == nil || prev.cfg != cfg || prev.classes != classes ||
		prev.codes.Rows() != bins.codes.Rows() || prev.codes.Cols() != bins.codes.Cols() {
		return nil
	}
	ch := make([]rowChange, len(y))
	for f := range prev.exact {
		was, now := prev.codes.Col(f), bins.codes.Col(f)
		flipped := prev.exact[f] != bins.feats[f].Exact
		for i := range ch {
			if flipped || was[i] != now[i] {
				ch[i].set(f)
			}
		}
	}
	for i, c := range y {
		if int(prev.labels[i]) != c {
			ch[i].set(labelBit)
		}
	}
	return ch
}
