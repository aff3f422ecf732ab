package bins

import "math"

// vecGapTree is the d-dimensional generalization of gapTree: a segment
// tree over the Index's slots (bins in opening order) whose nodes store the per-dimension
// maximum gap of their range, laid out with stride dim (node p's gap in
// dimension d lives at node[p*dim+d]). A subtree can be pruned from a
// vector-fit search as soon as ONE dimension's range maximum falls short
// of the demand: no bin inside can fit. The surviving leaves are then
// verified with the exact Bin.FitsDemand comparison, so the descent
// returns precisely the bins a linear scan of the open list would — the
// tree only prunes, it never decides.
//
// Pruning compares against demand minus a 2*Eps slack rather than the
// exact admission threshold: the leaf gaps are one float subtraction
// (Capacity - level) away from the level-based admission test, and the
// slack (1e-9, nine orders above the rounding error of O(1) operands)
// guarantees the rearrangement can never prune a bin the exact test
// would admit. A borderline subtree is visited and rejected at its
// leaves; answers are unaffected.
//
// Closed bins are tombstoned with -Inf in every dimension, which fails
// every pruning check, so they can never be visited; compaction (move,
// truncate) reclaims their slots exactly as in gapTree.
type vecGapTree struct {
	dim  int
	n    int       // slots in use (leaves); leaves >= n hold -Inf
	size int       // power-of-two leaf count
	node []float64 // stride-dim segment tree over cached gaps (max per dim)
}

// add appends leaf i (slots are handed out in order) with -Inf gaps;
// the caller follows up with update.
func (t *vecGapTree) add(i int) {
	if i != t.n {
		panic("bins: vector gap tree observed out-of-order slot")
	}
	t.n++
	if t.n > t.size {
		t.resize(ceilPow2(t.n))
	}
}

// resize reallocates the tree with a power-of-two leaf count, preserving
// the leaves in use (see gapTree.resize).
func (t *vecGapTree) resize(size int) {
	old, oldSize := t.node, t.size
	t.size = size
	t.node = make([]float64, 2*size*t.dim)
	for i := range t.node {
		t.node[i] = math.Inf(-1)
	}
	copy(t.node[size*t.dim:(size+min(t.n, oldSize))*t.dim], old[oldSize*t.dim:])
	for p := size - 1; p >= 1; p-- {
		t.pull(p)
	}
}

// pull recomputes node p's per-dimension maxima from its children.
func (t *vecGapTree) pull(p int) {
	l, r := 2*p*t.dim, (2*p+1)*t.dim
	for d := 0; d < t.dim; d++ {
		t.node[p*t.dim+d] = math.Max(t.node[l+d], t.node[r+d])
	}
}

// update refreshes leaf i from the bin's current per-dimension gaps.
func (t *vecGapTree) update(i int, b *Bin) {
	p := t.size + i
	for d := 0; d < t.dim; d++ {
		t.node[p*t.dim+d] = b.GapAt(d)
	}
	for p >>= 1; p >= 1; p >>= 1 {
		t.pull(p)
	}
}

// tombstone marks leaf i closed (-Inf in every dimension).
func (t *vecGapTree) tombstone(i int) {
	p := t.size + i
	for d := 0; d < t.dim; d++ {
		t.node[p*t.dim+d] = math.Inf(-1)
	}
	for p >>= 1; p >= 1; p >>= 1 {
		t.pull(p)
	}
}

// move copies leaf from's gaps to leaf to (to <= from) without updating
// ancestors; see gapTree.move.
func (t *vecGapTree) move(from, to int) {
	copy(t.node[(t.size+to)*t.dim:(t.size+to+1)*t.dim], t.node[(t.size+from)*t.dim:(t.size+from+1)*t.dim])
}

// truncate ends compaction exactly as gapTree.truncate does.
func (t *vecGapTree) truncate(n int) {
	for i := (t.size + n) * t.dim; i < (t.size+t.n)*t.dim; i++ {
		t.node[i] = math.Inf(-1)
	}
	lo, hi := t.size, t.size+t.n-1
	t.n = n
	if size := shrinkTo(t.size, n); size > 0 {
		t.resize(size)
		return
	}
	for lo > 1 && hi >= lo {
		lo, hi = lo>>1, hi>>1
		for p := lo; p <= hi; p++ {
			t.pull(p)
		}
	}
}

// gap returns leaf i's cached gap in dimension d.
func (t *vecGapTree) gap(i, d int) float64 { return t.node[(t.size+i)*t.dim+d] }

// minGapAt returns the minimum over dimensions of leaf i's cached gaps —
// the key under which the bin is filed in the dominant-resource treap.
// Leaf gaps are written as Bin.GapAt values, so this reproduces the
// bin's MinGap at the time of the last update bit-for-bit.
func (t *vecGapTree) minGapAt(i int) float64 {
	base := (t.size + i) * t.dim
	min := t.node[base]
	for d := 1; d < t.dim; d++ {
		if g := t.node[base+d]; g < min {
			min = g
		}
	}
	return min
}

// mayFit reports whether node p's range could contain a bin fitting the
// pruned demand thresholds (need[d] = sizes[d] - 2*Eps).
func (t *vecGapTree) mayFit(p int, need []float64) bool {
	base := p * t.dim
	for d, nd := range need {
		if t.node[base+d] < nd {
			return false
		}
	}
	return true
}
