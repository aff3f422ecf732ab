package bins

import (
	"fmt"
	"math"
)

// Index is the ledger-maintained policy index over the open bins: a
// max-gap segment tree in opening order (positional queries — First Fit,
// Last Fit) and a (gap, index)-ordered treap (level queries — Best Fit,
// Worst Fit, Almost Worst Fit). The owning Ledger keeps it coherent on
// every OpenNew/PlaceIn/Remove/CloseExpired, so every query below is
// O(log B) in the number B of open bins, with no per-policy bookkeeping.
//
// The segment trees are addressed by a dense slot, not by Bin.Index: a
// bin takes the next slot when it opens, and its slot is tombstoned
// (-Inf, pointer dropped) when it closes. Once tombstones outnumber open
// bins (above compactFloor slots) the open bins are renumbered 0..B-1 in
// opening order and the trees truncated — O(slots), amortized O(1) per
// close — so the trees are sized by open bins, never by bins ever
// opened, and the index holds no closed bin. Because slot order equals
// opening order, every query answers exactly as a tree over Bin.Index
// would. The treaps are keyed by Bin.Index and untouched by compaction.
//
// The scalar structures cover first-dimension gaps, which is exact for
// 1-D demands; callers fold their tolerance into `need` (conventionally
// size - Eps), and all scalar comparisons are exact — no epsilon — so
// query answers are order-independent and reproducible.
//
// For d > 1 the index additionally maintains two vector structures:
//
//   - vtree, a stride-d segment tree of per-dimension range-maximum gaps,
//     which answers the positional vector queries (FirstFittingVec,
//     LastFittingVec, EachFitting) by pruned descent: a subtree is
//     skipped as soon as one dimension's maximum cannot accommodate the
//     demand, and each surviving leaf is verified with the exact
//     Bin.FitsDemand comparison — so the answers are bit-identical to a
//     linear scan of the open list, with the tree acting purely as an
//     accelerator (O(log B) when few bins fit, degrading gracefully to
//     the linear visit order when many do).
//   - dlvls, a treap keyed by (MinGap, index) — the dominant-resource
//     scalarization of the gap vector — which answers MaxMinGapFitting
//     (dominant-resource Worst Fit) by walking gap groups downward from
//     the emptiest, again verifying each candidate exactly.
type Index struct {
	bins []*Bin // by slot; nil marks a closed bin's slot until compaction
	dead int    // nil slots in bins
	tree gapTree
	lvls levelTree

	dim   int
	vtree *vecGapTree // per-dimension max-gap tree; nil unless dim > 1
	dlvls levelTree   // (MinGap, index) treap; empty unless dim > 1

	// Reusable query scratch (the index is single-writer, like its ledger).
	need  []float64
	stack []int
}

// compactFloor is the slot count below which the index never compacts:
// small fleets keep their tombstones rather than renumbering every few
// closes.
const compactFloor = 64

// newIndex creates an index for a ledger of the given dimensionality.
func newIndex(dim int) *Index {
	ix := &Index{dim: dim}
	if dim > 1 {
		ix.vtree = &vecGapTree{dim: dim}
	}
	return ix
}

// Slots returns the number of segment-tree leaves in use: the open bins
// plus the tombstones of bins closed since the last compaction. It never
// exceeds max(2*open, 64).
func (ix *Index) Slots() int { return len(ix.bins) }

// observeOpen tracks a freshly opened bin (called by the ledger, in
// opening order, after the first item is placed).
func (ix *Index) observeOpen(b *Bin) {
	b.slot = len(ix.bins)
	ix.bins = append(ix.bins, b)
	ix.tree.add(b.slot)
	ix.tree.update(b.slot, b.Gap())
	ix.lvls.insert(b.Gap(), b)
	if ix.vtree != nil {
		ix.vtree.add(b.slot)
		ix.vtree.update(b.slot, b)
		ix.dlvls.insert(ix.vtree.minGapAt(b.slot), b)
	}
	ix.compactIfSparse()
}

// refresh re-reads an open bin's gaps after a level change. The treap
// keys to delete are read back from the tree leaves (the exact floats
// inserted last time), never recomputed from the bin.
func (ix *Index) refresh(b *Bin) {
	old := ix.tree.gap(b.slot)
	if g := b.Gap(); g != old {
		ix.tree.update(b.slot, g)
		ix.lvls.delete(old, b.Index)
		ix.lvls.insert(g, b)
	}
	if ix.vtree != nil {
		oldMin := ix.vtree.minGapAt(b.slot)
		ix.vtree.update(b.slot, b)
		if newMin := ix.vtree.minGapAt(b.slot); newMin != oldMin {
			ix.dlvls.delete(oldMin, b.Index)
			ix.dlvls.insert(newMin, b)
		}
	}
}

// remove untracks a bin that closed: its slot is tombstoned and its
// pointer dropped, and the slots compact once tombstones outnumber open
// bins.
func (ix *Index) remove(b *Bin) {
	old := ix.tree.gap(b.slot)
	ix.tree.update(b.slot, math.Inf(-1))
	ix.lvls.delete(old, b.Index)
	if ix.vtree != nil {
		oldMin := ix.vtree.minGapAt(b.slot)
		ix.vtree.tombstone(b.slot)
		ix.dlvls.delete(oldMin, b.Index)
	}
	ix.bins[b.slot] = nil
	ix.dead++
	ix.compactIfSparse()
}

// compactIfSparse compacts once tombstones outnumber open bins, so the
// leaves never exceed max(2*open, compactFloor). Opens check too: a
// fleet sitting at the floor with many tombstones would otherwise cross
// the bound on its next open.
func (ix *Index) compactIfSparse() {
	if n := len(ix.bins); 2*ix.dead > n && n > compactFloor {
		ix.compact()
	}
}

// compact renumbers the open bins 0..B-1 in slot (= opening) order and
// truncates the trees to B leaves, in place.
func (ix *Index) compact() {
	j := 0
	for i, b := range ix.bins {
		if b == nil {
			continue
		}
		if i != j {
			ix.tree.move(i, j)
			if ix.vtree != nil {
				ix.vtree.move(i, j)
			}
			ix.bins[j] = b
			b.slot = j
		}
		j++
	}
	clear(ix.bins[j:])
	ix.bins = ix.bins[:j]
	ix.tree.truncate(j)
	if ix.vtree != nil {
		ix.vtree.truncate(j)
	}
	ix.dead = 0
}

// FirstFitting returns the earliest-opened bin with gap >= need, or nil
// (the First Fit query).
func (ix *Index) FirstFitting(need float64) *Bin {
	i := ix.tree.firstAtLeast(need)
	if i < 0 {
		return nil
	}
	return ix.bins[i]
}

// LastFitting returns the latest-opened bin with gap >= need, or nil
// (the Last Fit query).
func (ix *Index) LastFitting(need float64) *Bin {
	i := ix.tree.lastAtLeast(need)
	if i < 0 {
		return nil
	}
	return ix.bins[i]
}

// TightestFitting returns the bin with the smallest gap >= need, ties
// toward the earliest opened, or nil (the Best Fit query).
func (ix *Index) TightestFitting(need float64) *Bin {
	n := ix.lvls.ceil(need, 0)
	if n == nil {
		return nil
	}
	return n.bin
}

// EmptiestFitting returns the bin with the largest gap, ties toward the
// earliest opened, or nil if even that gap is below need (the Worst Fit
// query).
func (ix *Index) EmptiestFitting(need float64) *Bin {
	if n := ix.emptiest(need); n != nil {
		return n.bin
	}
	return nil
}

// emptiest is the treap node behind EmptiestFitting: the lowest index
// within the maximal-gap group, or nil if that gap is below need.
func (ix *Index) emptiest(need float64) *levelNode {
	m := ix.lvls.max()
	if m == nil || m.gap < need {
		return nil
	}
	return ix.lvls.ceil(m.gap, 0)
}

// SecondEmptiestFitting returns the runner-up of EmptiestFitting under
// the (descending gap, ascending index) order, restricted to gaps >=
// need, or nil when fewer than two bins qualify (the Almost Worst Fit
// query).
func (ix *Index) SecondEmptiestFitting(need float64) *Bin {
	first := ix.emptiest(need)
	if first == nil {
		return nil
	}
	g := first.gap
	// Next bin in the same gap group, if any.
	if n := ix.lvls.ceil(g, first.idx+1); n != nil && n.gap == g {
		return n.bin
	}
	// Otherwise the head of the next-lower gap group, if it still fits.
	p := ix.lvls.floorBelowGap(g)
	if p == nil || p.gap < need {
		return nil
	}
	return ix.lvls.ceil(p.gap, 0).bin
}

// EachFitting calls visit for every open bin that can accommodate the
// raw demand vector (Bin.FitsDemand, Eps applied internally), in
// ascending opening order, stopping early when visit returns false. It
// is the enumeration primitive score-minimizing vector policies (Best
// Fit variants, dot-product, norm-based) are built from: the tree
// descent prunes whole ranges of bins that cannot fit, and the visit
// order matches a linear scan of the open list exactly.
func (ix *Index) EachFitting(sizes []float64, visit func(*Bin) bool) {
	ix.eachFitting(sizes, false, visit)
}

// FirstFittingVec returns the earliest-opened bin fitting the demand
// vector, or nil — the vector First Fit query.
func (ix *Index) FirstFittingVec(sizes []float64) *Bin {
	var out *Bin
	ix.eachFitting(sizes, false, func(b *Bin) bool { out = b; return false })
	return out
}

// LastFittingVec returns the latest-opened bin fitting the demand
// vector, or nil — the vector Last Fit query.
func (ix *Index) LastFittingVec(sizes []float64) *Bin {
	var out *Bin
	ix.eachFitting(sizes, true, func(b *Bin) bool { out = b; return false })
	return out
}

// eachFitting is the pruned depth-first descent behind the positional
// vector queries; desc flips the child order for highest-index-first
// enumeration. For 1-D fleets the scalar gap tree plays the role of the
// vector tree (same pruning rule, stride 1); the leaf test is always the
// exact FitsDemand the linear reference applies, so the enumeration is
// bit-identical to scanning the open list.
func (ix *Index) eachFitting(sizes []float64, desc bool, visit func(*Bin) bool) {
	need := ix.need[:0]
	for _, s := range sizes {
		need = append(need, s-2*Eps)
	}
	ix.need = need
	var (
		size int
		nLvs int
	)
	if ix.dim > 1 {
		if ix.vtree == nil || ix.vtree.size == 0 {
			return
		}
		size, nLvs = ix.vtree.size, ix.vtree.n
	} else {
		if ix.tree.size == 0 {
			return
		}
		size, nLvs = ix.tree.size, ix.tree.n
	}
	mayFit := func(p int) bool {
		if ix.dim > 1 {
			return ix.vtree.mayFit(p, need)
		}
		// Scalar pruning uses only the first dimension's threshold; any
		// extra components of an ill-dimensioned demand are rejected by
		// FitsDemand at the leaves.
		return ix.tree.node[p] >= need[0]
	}
	stack := append(ix.stack[:0], 1)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !mayFit(p) {
			continue
		}
		if p >= size {
			if i := p - size; i < nLvs {
				if b := ix.bins[i]; b != nil && b.FitsDemand(sizes) && !visit(b) {
					ix.stack = stack[:0]
					return
				}
			}
			continue
		}
		if desc {
			stack = append(stack, 2*p, 2*p+1)
		} else {
			stack = append(stack, 2*p+1, 2*p)
		}
	}
	ix.stack = stack[:0]
}

// MaxMinGapFitting returns the fitting bin with the largest MinGap —
// the emptiest dominant resource — ties toward the earliest opened, or
// nil if no open bin fits (the dominant-resource Worst Fit query). It
// walks (MinGap, index) groups downward from the emptiest, verifying
// each candidate with the exact FitsDemand test, and stops once a
// group's MinGap cannot accommodate even the demand's smallest
// component (below that, no bin can fit: the dimension attaining MinGap
// would already overflow).
func (ix *Index) MaxMinGapFitting(sizes []float64) *Bin {
	t := &ix.lvls
	if ix.dim > 1 {
		t = &ix.dlvls
	}
	minNeed := math.Inf(1)
	for _, s := range sizes {
		if s < minNeed {
			minNeed = s
		}
	}
	minNeed -= 2 * Eps
	for m := t.max(); m != nil; m = t.floorBelowGap(m.gap) {
		g := m.gap
		if g < minNeed {
			return nil
		}
		for n := t.ceil(g, 0); n != nil && n.gap == g; n = t.ceil(g, n.idx+1) {
			if n.bin.FitsDemand(sizes) {
				return n.bin
			}
		}
	}
	return nil
}

// checkCoherent verifies the index against the ledger's open list; the
// ledger's CheckInvariants calls it when the index is enabled. Beyond
// the gaps and treap keys it checks the slot layout: open bins hold
// increasing slots, every other slot is a pointer-free tombstone, and
// the leaves stay within max(2*open, compactFloor).
func (ix *Index) checkCoherent(open []*Bin) error {
	prev := -1
	for _, b := range open {
		s := b.slot
		if s < 0 || s >= len(ix.bins) || ix.bins[s] != b {
			return fmt.Errorf("index does not track open bin %d", b.Index)
		}
		if s <= prev {
			return fmt.Errorf("index slot %d of bin %d out of opening order", s, b.Index)
		}
		prev = s
		if g := ix.tree.gap(s); g != b.Gap() {
			return fmt.Errorf("index gap for bin %d is %g, want %g", b.Index, g, b.Gap())
		}
		if n := ix.lvls.find(b.Gap(), b.Index); n == nil || n.bin != b {
			return fmt.Errorf("level tree missing open bin %d (gap %g)", b.Index, b.Gap())
		}
		if ix.vtree != nil {
			for d := 0; d < ix.dim; d++ {
				if g := ix.vtree.gap(s, d); g != b.GapAt(d) {
					return fmt.Errorf("vector index gap for bin %d dim %d is %g, want %g", b.Index, d, g, b.GapAt(d))
				}
			}
			key := ix.vtree.minGapAt(s)
			if n := ix.dlvls.find(key, b.Index); n == nil || n.bin != b {
				return fmt.Errorf("dominant-resource tree missing open bin %d (min gap %g)", b.Index, key)
			}
		}
	}
	dead := 0
	for i, b := range ix.bins {
		if b != nil {
			if !b.IsOpen() {
				return fmt.Errorf("index slot %d holds closed bin %d", i, b.Index)
			}
			continue
		}
		dead++
		if !math.IsInf(ix.tree.gap(i), -1) {
			return fmt.Errorf("slot %d not tombstoned in gap tree (gap %g)", i, ix.tree.gap(i))
		}
		if ix.vtree != nil && !math.IsInf(ix.vtree.minGapAt(i), -1) {
			return fmt.Errorf("slot %d not tombstoned in vector gap tree", i)
		}
	}
	if dead != ix.dead || len(ix.bins)-dead != len(open) {
		return fmt.Errorf("index holds %d slots, %d dead (counted %d), for %d open bins", len(ix.bins), dead, ix.dead, len(open))
	}
	if n := len(ix.bins); n > 2*len(open) && n > compactFloor {
		return fmt.Errorf("index holds %d slots for %d open bins", n, len(open))
	}
	if ix.tree.n != len(ix.bins) || (ix.vtree != nil && ix.vtree.n != len(ix.bins)) {
		return fmt.Errorf("gap trees hold %d leaves, index %d slots", ix.tree.n, len(ix.bins))
	}
	if n := ix.lvls.count(); n != len(open) {
		return fmt.Errorf("level tree holds %d keys, want %d open bins", n, len(open))
	}
	if ix.vtree != nil {
		if n := ix.dlvls.count(); n != len(open) {
			return fmt.Errorf("dominant-resource tree holds %d keys, want %d open bins", n, len(open))
		}
	}
	return nil
}
