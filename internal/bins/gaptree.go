package bins

import "math"

// gapTree is a segment tree over the Index's slots (bins in opening
// order) storing the maximum gap in each range. It answers the
// positional Any Fit queries — "lowest-/highest-slot open bin with gap >=
// s" — in O(log B) each. Closed bins are tombstoned with -Inf so they can
// never win a query, until the Index compacts its slots (move, truncate).
//
// It generalizes the structure that used to live inside the FastFirstFit
// policy; the Index now maintains it ledger-side for every policy.
type gapTree struct {
	n    int       // slots in use (leaves); leaves >= n hold -Inf
	node []float64 // segment tree over cached gaps (max)
	size int       // power-of-two leaf count
}

// add appends leaf i (slots are handed out in order) with gap -Inf; the
// caller follows up with update.
func (t *gapTree) add(i int) {
	if i != t.n {
		panic("bins: gap tree observed out-of-order slot")
	}
	t.n++
	if t.n > t.size {
		t.resize(ceilPow2(t.n))
	}
}

// ceilPow2 returns the smallest power of two >= n (1 for n <= 1).
func ceilPow2(n int) int {
	size := 1
	for size < n {
		size *= 2
	}
	return size
}

// shrinkTo returns the leaf count a tree of size leaves should shrink to
// after compacting to n slots, or 0 to keep its size: it shrinks to room
// for 2n once it has four times that, so the depth of every descent
// follows the open fleet down while a steady fleet never reallocates.
func shrinkTo(size, n int) int {
	if want := ceilPow2(2 * n); 4*want <= size {
		return want
	}
	return 0
}

// resize reallocates the tree with a power-of-two leaf count (growing
// for an add, or shrinking after compaction), preserving the leaves in
// use.
func (t *gapTree) resize(size int) {
	old, oldSize := t.node, t.size
	t.size = size
	t.node = make([]float64, 2*size)
	for i := range t.node {
		t.node[i] = math.Inf(-1)
	}
	copy(t.node[size:size+min(t.n, oldSize)], old[oldSize:])
	for i := size - 1; i >= 1; i-- {
		t.node[i] = math.Max(t.node[2*i], t.node[2*i+1])
	}
}

// update sets leaf i's gap (use -Inf to tombstone a closed bin).
func (t *gapTree) update(i int, gap float64) {
	p := t.size + i
	t.node[p] = gap
	for p >>= 1; p >= 1; p >>= 1 {
		t.node[p] = math.Max(t.node[2*p], t.node[2*p+1])
	}
}

// move copies leaf from's value to leaf to (to <= from) without
// updating ancestors; compaction calls truncate once all moves are done.
func (t *gapTree) move(from, to int) { t.node[t.size+to] = t.node[t.size+from] }

// truncate ends compaction: leaves [n, t.n) become -Inf and every
// ancestor of the old leaves [0, t.n) is recomputed, O(t.n + log size).
// Nodes outside that range cover only -Inf leaves and are already exact.
// A tree left mostly empty shrinks (see shrinkTo).
func (t *gapTree) truncate(n int) {
	for i := n; i < t.n; i++ {
		t.node[t.size+i] = math.Inf(-1)
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
			t.node[p] = math.Max(t.node[2*p], t.node[2*p+1])
		}
	}
}

// gap returns leaf i's current value.
func (t *gapTree) gap(i int) float64 { return t.node[t.size+i] }

// firstAtLeast returns the smallest slot whose gap >= s, or -1.
func (t *gapTree) firstAtLeast(s float64) int {
	if t.size == 0 || t.node[1] < s {
		return -1
	}
	p := 1
	for p < t.size {
		if t.node[2*p] >= s {
			p = 2 * p
		} else {
			p = 2*p + 1
		}
	}
	idx := p - t.size
	if idx >= t.n {
		return -1
	}
	return idx
}

// lastAtLeast returns the largest slot whose gap >= s, or -1. The
// right-first descent mirrors firstAtLeast.
func (t *gapTree) lastAtLeast(s float64) int {
	if t.size == 0 || t.node[1] < s {
		return -1
	}
	p := 1
	for p < t.size {
		if t.node[2*p+1] >= s {
			p = 2*p + 1
		} else {
			p = 2 * p
		}
	}
	idx := p - t.size
	if idx >= t.n {
		return -1
	}
	return idx
}
