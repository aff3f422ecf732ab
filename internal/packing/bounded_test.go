package packing

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"dbp/internal/item"
)

// The bounded-state gates: a stream's per-event cost and memory must be
// bounded by its live state (running jobs, open servers), not by its
// uptime, and restoring it must cost O(open servers). Each gate measures
// a quantity that carries across machines: allocation counts, a
// within-run cost ratio, a heap delta, and index leaves against open
// servers. The alloc and timing gates skip under -race.

// slotFloor is the leaf count below which bins.Index never compacts
// (documented on Index.Slots).
const slotFloor = 64

// TestStreamOpenServerRoundTripZeroAlloc gates placement onto an
// already-open server at zero allocations: a warmed stream's arrive and
// depart of a job on a server a second job keeps open touch only the
// level index, the ledger's maps and the bin's levels, all of which
// reuse their storage.
func TestStreamOpenServerRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	for _, dim := range []int{1, 2} {
		s := NewStream(NewFirstFit(), 0, dim)
		var sizes, hold []float64
		if dim > 1 {
			sizes, hold = []float64{0.3, 0.2}, []float64{0.5, 0.5}
		}
		if _, _, err := s.Arrive(0, 0.5, hold, 0); err != nil {
			t.Fatal(err)
		}
		id, now := item.ID(0), 0.0
		round := func() {
			id++
			now++
			if srv, opened, err := s.Arrive(id, 0.3, sizes, now); err != nil || srv != 0 || opened {
				t.Fatalf("dim %d: arrive -> server %d opened=%v err=%v, want server 0", dim, srv, opened, err)
			}
			if srv, closed, err := s.Depart(id, now); err != nil || srv != 0 || closed {
				t.Fatalf("dim %d: depart -> server %d closed=%v err=%v, want server 0 open", dim, srv, closed, err)
			}
		}
		for i := 0; i < 100; i++ {
			round()
		}
		if n := testing.AllocsPerRun(1000, round); n != 0 {
			t.Fatalf("dim %d: arrive+depart onto an open server allocates %v per round trip, want 0", dim, n)
		}
	}
}

// TestStreamBoundedState drives a First Fit stream at a fixed live load
// for over a million ops, through a fleet that keeps opening and closing
// servers (ServersUsed/PeakServers >= 100), and asserts the stream stays
// bounded by its live state:
//
//   - after every event the index holds at most max(2*open, 64) leaves;
//   - the live heap after GC grows by under 1 MiB from start to end;
//   - ns/op over the last 100k-op window is at most 1.5x the first.
//
// A window's cost is the median over its 1000-op chunks, which keeps a
// preempted chunk on a shared machine from deciding the ratio.
func TestStreamBoundedState(t *testing.T) {
	if raceEnabled {
		t.Skip("timing and heap accounting are unreliable under -race")
	}
	const (
		liveJobs = 100
		warmup   = 50_000
		chunk    = 1000
		window   = 100 // chunks
		chunks   = 1_000_000 / chunk
	)
	rng := rand.New(rand.NewSource(1))
	s := NewStream(NewFirstFit(), 0, 0)
	ix := s.Ledger().Index()
	live := make([]item.ID, 0, liveJobs)
	next := item.ID(1)
	now := 0.0
	step := func() {
		now += rng.ExpFloat64()
		if len(live) < liveJobs {
			if _, _, err := s.Arrive(next, 0.05+0.6*rng.Float64(), nil, now); err != nil {
				t.Fatal(err)
			}
			live = append(live, next)
			next++
		} else {
			i := rng.Intn(len(live))
			if _, _, err := s.Depart(live[i], now); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if n, open := ix.Slots(), s.OpenServers(); n > 2*open && n > slotFloor {
			t.Fatalf("index holds %d leaves for %d open servers", n, open)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	heapStart := liveHeap()
	costs := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			step()
		}
		costs = append(costs, float64(time.Since(t0).Nanoseconds())/chunk)
	}
	heapEnd := liveHeap()

	if used, peak := s.ServersUsed(), s.PeakServers(); used < 100*peak {
		t.Fatalf("fleet churn too low for the gate: %d servers used, peak %d", used, peak)
	}
	if grew := int64(heapEnd) - int64(heapStart); grew > 1<<20 {
		t.Fatalf("live heap grew by %d bytes over %d ops (%d -> %d)", grew, chunks*chunk, heapStart, heapEnd)
	}
	first, last := median(costs[:window]), median(costs[len(costs)-window:])
	if last > 1.5*first {
		t.Fatalf("ns/op drifted from %.0f (first window) to %.0f (last window), want <= 1.5x", first, last)
	}
	t.Logf("%d ops: %d servers used, peak %d; ns/op first %.0f last %.0f; heap %d -> %d",
		chunks*chunk, s.ServersUsed(), s.PeakServers(), first, last, heapStart, heapEnd)
}

// liveHeap returns the heap still in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestRestoreCostIndependentOfServersUsed gates restore at O(open): a
// snapshot of 3 open servers restores with the same allocations whether
// the stream had opened 3 servers or a million.
func TestRestoreCostIndependentOfServersUsed(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	s := NewStream(NewFirstFit(), 0, 0)
	for i := 0; i < 3; i++ {
		if _, _, err := s.Arrive(item.ID(i), 0.6, nil, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	small := s.Snapshot()
	big := small
	big.ServersUsed = 1_000_000
	big.Servers = append([]ServerState(nil), small.Servers...)
	for k := range big.Servers {
		big.Servers[k].Index = big.ServersUsed - len(big.Servers) + k
	}
	var allocs []float64
	for _, snap := range []Snapshot{small, big} {
		if _, err := RestoreStream(NewFirstFit(), snap); err != nil {
			t.Fatalf("restore of %d servers used: %v", snap.ServersUsed, err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			RestoreStream(NewFirstFit(), snap)
		}))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("restore allocates %v with 3 servers used, %v with a million", allocs[0], allocs[1])
	}
}

// churnEvents scripts a fixed-live-load stream: arrivals until live jobs
// reach liveJobs, then a random live job departs, with short time steps
// so keep-alive servers linger across several events. Random departures
// keep emptying servers, so the index crosses many compactions.
func churnEvents(seed int64, n, dim, liveJobs int) []testEv {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]testEv, 0, n)
	var live []item.ID
	next := item.ID(1)
	now := 0.0
	for len(evs) < n {
		now += rng.Float64() * 0.1
		if len(live) < liveJobs && (len(live) == 0 || rng.Intn(3) > 0) {
			ev := testEv{kind: "arrive", id: next, size: 0.2 + 0.5*rng.Float64(), t: now}
			if dim > 1 {
				ev.sizes = []float64{ev.size, 0.6 * rng.Float64()}
			}
			evs = append(evs, ev)
			live = append(live, next)
			next++
			continue
		}
		i := rng.Intn(len(live))
		evs = append(evs, testEv{kind: "depart", id: live[i], t: now})
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return evs
}

// TestCompactionEquivalentEngines is the cross-engine oracle across
// index compactions: indexed and linear streams take identical per-event
// decisions, with ledger invariants (slot layout and the leaf bound
// included) checked after every event — for the positional, level and
// stateful policies, whose retained state names servers by Bin.Index
// while the index renumbers its slots. Midway, between two compactions,
// the indexed stream is snapshotted and restored; the restored stream
// must follow the same decisions and end in the same state.
func TestCompactionEquivalentEngines(t *testing.T) {
	policies := []string{"firstfit", "lastfit", "bestfit", "worstfit", "almostworstfit", "nextfit", "hybridff", "hybridnextfit"}
	for _, dim := range []int{1, 2} {
		for _, keepAlive := range []float64{0, 0.1} {
			evs := churnEvents(int64(5+dim), 6000, dim, 20)
			for _, name := range policies {
				label := fmt.Sprintf("d=%d/ka=%g/%s", dim, keepAlive, name)
				streams := make([]*Stream, 2)
				for k, kind := range []EngineKind{EngineIndexed, EngineLinear} {
					algo, err := ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					if streams[k], err = NewStreamEngine(algo, 1, dim, keepAlive, kind); err != nil {
						t.Fatal(err)
					}
				}
				ix := streams[0].Ledger().Index()
				compactions, slots, restoredAt := 0, 0, 0
				var restored *Stream
				for i, ev := range evs {
					rs, rf, rc := applyEv(streams[0], ev)
					for _, other := range streams[1:] {
						if gs, gf, gc := applyEv(other, ev); gs != rs || gf != rf || gc != rc {
							t.Fatalf("%s: event %d (%+v): indexed (%d,%v,%q) != (%d,%v,%q)", label, i, ev, rs, rf, rc, gs, gf, gc)
						}
					}
					for _, st := range streams {
						if err := st.Ledger().CheckInvariants(); err != nil {
							t.Fatalf("%s: event %d: %v", label, i, err)
						}
					}
					if n := ix.Slots(); n < slots {
						compactions++
					}
					slots = ix.Slots()
					if restored == nil && compactions >= 3 && slots > streams[0].OpenServers() {
						algo, err := ByName(name)
						if err != nil {
							t.Fatal(err)
						}
						snap := streams[0].Snapshot()
						if restored, err = RestoreStream(algo, roundTrip(t, snap)); err != nil {
							t.Fatalf("%s: restore at event %d: %v", label, i, err)
						}
						streams = append(streams, restored)
						restoredAt = compactions
					}
				}
				if compactions < 5 || restored == nil || compactions == restoredAt {
					t.Fatalf("%s: %d compactions, restored after %d: workload too calm for the oracle", label, compactions, restoredAt)
				}
				for _, st := range streams {
					st.Shutdown()
				}
				if a, b := streams[0].Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: drained snapshots differ:\n ref      %+v\n restored %+v", label, a, b)
				}
				if a, b := streams[0].UsageTime(), streams[1].UsageTime(); a != b {
					t.Fatalf("%s: usage %v (indexed) != %v (linear)", label, a, b)
				}
			}
		}
	}
}
