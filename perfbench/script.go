package main

import (
	"fmt"
	"math"

	"dbp/internal/item"
	"dbp/internal/load"
	"dbp/internal/opt"
	"dbp/internal/serve"
	"dbp/internal/workload"
)

// Load is sized for a 2-CPU machine: two shards, each owned by one
// client goroutine (one connection on the wire workload), so every
// shard's event order is fixed by the seed and nothing else.
const (
	shards    = 2
	procs     = 2
	algorithm = "firstfit"
	// frameOps is the op count of one wire batch frame.
	frameOps = 32
)

// spec is one benchmark workload. Why each exists is recorded in
// BENCHMARK.json; in short: steady stresses the single-op in-process
// path over a long uptime, wire-batch the binary transport and the
// vector index with short server histories, durable the journal and
// recovery on steady's script.
type spec struct {
	name    string
	jobs    int     // jobs in the script; every job arrives and departs
	rate    float64 // Poisson arrival rate; rate x mean duration = live population
	mu      float64 // max/min job duration
	dim     int
	wire    bool // drive the wire protocol over loopback instead of in-process calls
	durable bool // per-shard WAL, recovered from a seeded journal at setup
	// seedOps is the per-shard op count of the journal the durable
	// workload recovers at setup; the traced run also uses it as the
	// snapshot point of the restore and journal probes. While that
	// journal is seeded the service snapshots every seedOps*2/3 events,
	// so every recovery loads a snapshot and then replays a tail of
	// seedOps/3 records whatever the seed.
	seedOps int
	// snapEvery is the durable service's snapshot period under load, in
	// shard events. A snapshot fsyncs three times inside the shard
	// owner; at the daemon's default period the shared disk's latency,
	// which varies from run to run, would set the workload's pace.
	snapEvery int
}

// fsyncPolicy is the durable workload's WAL sync policy.
const fsyncPolicy = "interval"

var specs = []spec{
	{name: "steady", jobs: 1000000, rate: 60, mu: 10, dim: 1, seedOps: 60000, snapEvery: 200000},
	{name: "wire-batch", jobs: 600000, rate: 1.5, mu: 10, dim: 2, wire: true, seedOps: 60000, snapEvery: 200000},
	{name: "durable", jobs: 1000000, rate: 60, mu: 10, dim: 1, durable: true, seedOps: 60000, snapEvery: 200000},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is one scripted event, carrying the timestamp the service is told
// to apply it at.
type op struct {
	depart bool
	id     item.ID
	size   float64
	sizes  []float64
	t      float64
}

// script is a generated instance split into per-shard op sequences.
type script struct {
	spec   spec
	seed   int64
	jobs   int
	shards [][]op // shard i's ops in event order
	lower  float64
}

func (sc *script) ops() int {
	n := 0
	for _, s := range sc.shards {
		n += len(s)
	}
	return n
}

// makeScript generates the instance from the seed, orders its events
// the way the load package does (time, departures first, then ID),
// routes each job to its shard with the service's own ShardFor, and
// computes the certified lower bound on OPT the usage ratio divides by.
func makeScript(sp spec, seed int64) (*script, error) {
	l, err := workload.FromSpec("uniform", sp.jobs, sp.rate, sp.mu, seed, sp.dim)
	if err != nil {
		return nil, err
	}
	byID := make(map[item.ID]*item.Item, len(l))
	for i := range l {
		byID[l[i].ID] = &l[i]
	}
	router, err := serve.New(serve.Config{Algorithm: algorithm, Shards: shards, Dim: sp.dim})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	sc := &script{spec: sp, seed: seed, jobs: len(l), shards: make([][]op, shards), lower: lowerBound(l, sp.dim)}
	for _, o := range load.ScriptFromList(l).Ops {
		it := byID[o.ID]
		si := router.ShardFor(o.ID)
		if o.Kind == load.OpDepart {
			sc.shards[si] = append(sc.shards[si], op{depart: true, id: o.ID, t: it.Departure})
		} else {
			sc.shards[si] = append(sc.shards[si], op{id: o.ID, size: o.Size, sizes: o.Sizes, t: it.Arrival})
		}
	}
	for si, s := range sc.shards {
		if len(s) <= sp.seedOps {
			return nil, fmt.Errorf("shard %d has %d ops, no more than the %d-op journal prefix", si, len(s), sp.seedOps)
		}
	}
	return sc, nil
}

// lowerBound is max(Prop. 1 demand bound, Prop. 2 span bound). A vector
// item's scalar Size is its largest component, whose demand integral
// can exceed OPT, so for d > 1 the bound is taken per dimension and the
// largest kept: each dimension's load is a valid demand bound on its own.
func lowerBound(l item.List, dim int) float64 {
	if dim == 1 {
		return opt.CombinedLowerBound(l)
	}
	best := 0.0
	proj := make(item.List, len(l))
	for k := 0; k < dim; k++ {
		for i, it := range l {
			proj[i] = item.Item{ID: it.ID, Size: it.Sizes[k], Arrival: it.Arrival, Departure: it.Departure}
		}
		best = math.Max(best, opt.CombinedLowerBound(proj))
	}
	return best
}
