package bins

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/item"
)

// reachableBins lists every *Bin the ledger or its index can reach.
func reachableBins(g *Ledger) []*Bin {
	var out []*Bin
	out = append(out, g.all...)
	out = append(out, g.open...)
	for _, b := range g.location {
		out = append(out, b)
	}
	for _, e := range g.expiries {
		out = append(out, e.bin)
	}
	for _, e := range g.due[:cap(g.due)] {
		out = append(out, e.bin)
	}
	if ix := g.index; ix != nil {
		out = append(out, ix.bins[:cap(ix.bins)]...)
		var walk func(*levelNode)
		walk = func(n *levelNode) {
			if n != nil {
				out = append(out, n.bin)
				walk(n.l)
				walk(n.r)
			}
		}
		for _, t := range []*levelTree{&ix.lvls, &ix.dlvls} {
			walk(t.root)
			for n := t.free; n != nil; n = n.r {
				if n.bin != nil || n.l != nil {
					out = append(out, n.bin)
				}
			}
		}
	}
	return out
}

// TestLiveLedgerReleasesClosedBins drives a live, indexed ledger through
// a long arrive/depart mix at fixed live load — d in {1, 2}, with and
// without keep-alive — and checks after every event that no closed bin
// is reachable from the ledger or its index, that the index leaves stay
// within max(2*open, compactFloor), that the ledger is coherent, and
// (scalar) that every indexed query still matches its linear reference
// across compactions.
func TestLiveLedgerReleasesClosedBins(t *testing.T) {
	for _, dim := range []int{1, 2} {
		for _, keepAlive := range []float64{0, 0.1} {
			rng := rand.New(rand.NewSource(int64(3 + dim)))
			g := NewLiveLedger(1, dim, keepAlive)
			g.EnableIndex()
			var live []item.Item
			now := 0.0
			nextID := item.ID(1)
			compactions, slots := 0, 0
			for step := 0; step < 12000; step++ {
				now += rng.Float64() * 0.05
				g.CloseExpired(now)
				if len(live) >= 40 || (len(live) > 0 && rng.Intn(2) == 0) {
					i := rng.Intn(len(live))
					g.Remove(live[i].ID, now)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					it := item.Item{ID: nextID, Size: 0.05 + 0.6*rng.Float64(), Arrival: now, Departure: math.Inf(1)}
					if dim > 1 {
						it.Sizes = []float64{it.Size, 0.6 * rng.Float64()}
					}
					nextID++
					if b := g.Index().FirstFittingVec(it.SizeVec()); b != nil {
						g.PlaceIn(b, it, now)
					} else {
						g.OpenNew(it, now)
					}
					live = append(live, it)
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("dim %d ka %g step %d: %v", dim, keepAlive, step, err)
				}
				for _, b := range reachableBins(g) {
					if b != nil && !b.IsOpen() {
						t.Fatalf("dim %d ka %g step %d: closed bin %d still reachable", dim, keepAlive, step, b.Index)
					}
				}
				n := g.Index().Slots()
				if n > 2*g.NumOpen() && n > compactFloor {
					t.Fatalf("dim %d ka %g step %d: %d slots for %d open bins", dim, keepAlive, step, n, g.NumOpen())
				}
				if n < slots {
					compactions++
				}
				slots = n
				if dim == 1 {
					checkQueries(t, g, rng.Float64())
				}
			}
			if g.AllBins() != nil || g.NumOpened() < 20*g.MaxConcurrentOpen() {
				t.Fatalf("dim %d ka %g: %d bins recorded, %d opened for peak %d",
					dim, keepAlive, len(g.AllBins()), g.NumOpened(), g.MaxConcurrentOpen())
			}
			t.Logf("dim %d ka %g: %d compactions, opened %d peak %d", dim, keepAlive, compactions, g.NumOpened(), g.MaxConcurrentOpen())
			if compactions < 10 {
				t.Fatalf("dim %d ka %g: only %d compactions", dim, keepAlive, compactions)
			}
		}
	}
}

// TestLiveBinsRecordNothing pins the recorder split: bins of a recording
// ledger keep their placement history, bins of a live ledger none.
func TestLiveBinsRecordNothing(t *testing.T) {
	it := mkItem(1, 0.5, 0, 2)
	rec := NewLedger(1, 1)
	if b := rec.OpenNew(it, 0); len(b.Placements()) != 1 || len(rec.AllBins()) != 1 {
		t.Fatal("recording ledger must keep the bin and its placement")
	}
	live := NewLiveLedger(1, 1, 0)
	b := live.OpenNew(it, 0)
	if b.Placements() != nil || live.AllBins() != nil {
		t.Fatal("live ledger must keep no history")
	}
	live.Remove(1, 2)
	if live.NumOpened() != 1 || live.NumOpen() != 0 || live.TotalUsage(0) != 2 {
		t.Fatalf("counters after close: opened %d open %d usage %g", live.NumOpened(), live.NumOpen(), live.TotalUsage(0))
	}
}
