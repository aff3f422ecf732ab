package serve_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/serve"
)

// TestDispatcherStressReconciles hammers a sharded dispatcher from many
// goroutines (run under -race via `make check`) and then proves the
// concurrent run was equivalent to a sequential one: each shard's
// journal, replayed event-for-event into a fresh packing.Stream, must
// reproduce the exact same server assignments and the exact same
// usage-time / servers-used / peak totals — float-equal, not
// approximately, since the event order per shard is the order the shard
// actually applied.
func TestDispatcherStressReconciles(t *testing.T) {
	const (
		workers = 10 // concurrent clients (acceptance floor: >= 8)
		shards  = 6  // acceptance floor: >= 4
		nOps    = 400
	)
	for _, tc := range []struct {
		name      string
		keepAlive float64
	}{
		{"no-keepalive", 0},
		{"keepalive", 0.002},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := serve.New(serve.Config{
				Algorithm: "firstfit",
				Shards:    shards,
				KeepAlive: tc.keepAlive,
				DataDir:   t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
					var running []item.ID
					for i := 0; i < nOps; i++ {
						if len(running) == 0 || rng.Float64() < 0.55 {
							id := item.ID(w*1_000_000 + i)
							size := 0.05 + 0.9*rng.Float64()
							if _, err := d.Arrive(id, size, nil, nil); err != nil {
								t.Errorf("worker %d: arrive %d: %v", w, id, err)
								return
							}
							running = append(running, id)
						} else {
							k := rng.Intn(len(running))
							id := running[k]
							running = append(running[:k], running[k+1:]...)
							if _, err := d.Depart(id, nil); err != nil {
								t.Errorf("worker %d: depart %d: %v", w, id, err)
								return
							}
						}
						// Inject protocol errors to exercise the rejection
						// paths concurrently: a duplicate arrive of a job
						// this worker still runs, and a departure of an ID
						// nobody ever submitted.
						if len(running) > 0 && rng.Float64() < 0.05 {
							if _, err := d.Arrive(running[0], 0.5, nil, nil); !errors.Is(err, packing.ErrDuplicateJob) {
								t.Errorf("worker %d: duplicate arrive: got %v", w, err)
							}
						}
						if rng.Float64() < 0.05 {
							ghost := item.ID(-(1 + w*1_000_000 + i))
							if _, err := d.Depart(ghost, nil); !errors.Is(err, packing.ErrUnknownJob) {
								t.Errorf("worker %d: ghost depart: got %v", w, err)
							}
						}
					}
					for _, id := range running {
						if _, err := d.Depart(id, nil); err != nil {
							t.Errorf("worker %d: final depart %d: %v", w, id, err)
						}
					}
				}(w)
			}
			wg.Wait()

			stats := d.Stats()
			if stats.Arrivals != stats.Departures {
				t.Fatalf("arrivals %d != departures %d after full drain", stats.Arrivals, stats.Departures)
			}
			if stats.Engine != "indexed" {
				t.Fatalf("service engine = %q, want indexed", stats.Engine)
			}
			for _, sh := range stats.PerShard {
				if sh.Policy != "FirstFit" || sh.Engine != "indexed" {
					t.Fatalf("shard %d reports policy %q engine %q, want FirstFit/indexed",
						sh.Shard, sh.Policy, sh.Engine)
				}
			}
			if stats.Rejected["duplicate_job"] == 0 || stats.Rejected["unknown_job"] == 0 {
				t.Errorf("error injection not observed in metrics: %v", stats.Rejected)
			}
			var journaled int
			for i := 0; i < d.NumShards(); i++ {
				journaled += len(journal(t, d, i))
			}
			if uint64(journaled) != stats.Arrivals+stats.Departures {
				t.Fatalf("journal has %d events, metrics count %d", journaled, stats.Arrivals+stats.Departures)
			}

			final := d.Close()
			if final.OpenServers != 0 {
				t.Fatalf("%d servers still open after drain", final.OpenServers)
			}

			// Sequential replay: per shard, a fresh single-goroutine
			// stream fed the shard's journal must agree exactly.
			var replayUsage float64
			for i := 0; i < d.NumShards(); i++ {
				algo, _ := packing.ByName("firstfit")
				replay := packing.NewStreamKeepAlive(algo, 0, 0, tc.keepAlive)
				for k, ev := range journal(t, d, i) {
					var server int
					var err error
					switch ev.Kind {
					case "arrive":
						server, _, err = replay.Arrive(ev.ID, ev.Size, ev.Sizes, ev.Time)
					case "depart":
						server, _, err = replay.Depart(ev.ID, ev.Time)
					}
					if err != nil {
						t.Fatalf("shard %d replay event %d: %v", i, k, err)
					}
					if server != ev.Server {
						t.Fatalf("shard %d event %d: live run used server %d, replay used %d", i, k, ev.Server, server)
					}
				}
				replay.Shutdown()
				snap := replay.Snapshot()
				live := final.PerShard[i]
				if snap.UsageTime != live.UsageTime {
					t.Errorf("shard %d usage: live %v != replay %v", i, live.UsageTime, snap.UsageTime)
				}
				if snap.ServersUsed != live.ServersUsed || snap.PeakServers != live.PeakServers {
					t.Errorf("shard %d servers: live used/peak %d/%d != replay %d/%d",
						i, live.ServersUsed, live.PeakServers, snap.ServersUsed, snap.PeakServers)
				}
				if snap.OpenServers != 0 {
					t.Errorf("shard %d replay left %d servers open", i, snap.OpenServers)
				}
				replayUsage += snap.UsageTime
			}
			if replayUsage != final.UsageTime {
				t.Errorf("total usage: live %v != replay %v", final.UsageTime, replayUsage)
			}
		})
	}
}

// TestDispatcherRouting checks that routing is a pure function of the
// job ID, covers every shard on a modest ID range, and that arrivals
// land on the shard ShardFor promises.
func TestDispatcherRouting(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[int]int)
	for id := item.ID(0); id < 256; id++ {
		si := d.ShardFor(id)
		if si != d.ShardFor(id) {
			t.Fatal("routing is not deterministic")
		}
		hit[si]++
		p, err := d.Arrive(id, 0.5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != si {
			t.Fatalf("job %d placed on shard %d, ShardFor says %d", id, p.Shard, si)
		}
	}
	for si := 0; si < 4; si++ {
		if hit[si] == 0 {
			t.Errorf("shard %d received no jobs out of 256 IDs", si)
		}
	}
}

// TestDispatcherCloseConcurrent closes the dispatcher while clients are
// mid-flight: every request must either succeed fully or fail with
// ErrClosed, Close must be idempotent, and the final totals must not
// change once reported.
func TestDispatcherCloseConcurrent(t *testing.T) {
	d, err := serve.New(serve.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				id := item.ID(w*1_000_000 + i)
				if _, err := d.Arrive(id, 0.25, nil, nil); err != nil {
					if !errors.Is(err, serve.ErrClosed) {
						t.Errorf("worker %d: %v", w, err)
					}
					return
				}
				if _, err := d.Depart(id, nil); err != nil {
					if !errors.Is(err, serve.ErrClosed) {
						t.Errorf("worker %d: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	close(start)
	final := d.Close()
	wg.Wait()
	if !d.Draining() {
		t.Error("Draining() false after Close")
	}
	again := d.Close()
	if again.UsageTime != final.UsageTime || again.Arrivals != final.Arrivals {
		t.Errorf("Close not idempotent: %+v then %+v", final, again)
	}
}

// TestRoundTripAllocs gates the single-op envelope at zero allocations
// of its own: a warmed one-shard dispatcher's Arrive+Depart round trip
// may allocate at most 2 more than the same round trip on a bare
// packing.Stream — the owner's stats gauge, republished whenever the
// queue runs empty, is the only per-op allocation the dispatcher adds.
// (Skipped under -race, which makes sync.Pool drop pooled envelopes.)
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	algo, _ := packing.ByName("firstfit")
	s := packing.NewStream(algo, 0, 0)
	d, err := serve.New(serve.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	id, now := item.ID(0), 0.0
	stream := func() {
		id++
		now++
		if _, _, err := s.Arrive(id, 0.3, nil, now); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Depart(id, now); err != nil {
			t.Fatal(err)
		}
	}
	dispatcher := func() {
		id++
		now++
		if _, err := d.Arrive(id, 0.3, nil, &now); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Depart(id, &now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the envelope pool and both ledgers
		stream()
		dispatcher()
	}
	base := testing.AllocsPerRun(1000, stream)
	got := testing.AllocsPerRun(1000, dispatcher)
	if got-base > 2 {
		t.Fatalf("dispatcher round trip allocates %v, bare stream %v: %v extra, want <= 2", got, base, got-base)
	}
	t.Logf("allocs per round trip: dispatcher %v, bare stream %v", got, base)
}
