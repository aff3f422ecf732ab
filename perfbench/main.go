// Command perfbench is the repository's benchmark. It generates one
// workload from a seed, drives the allocation service through its
// public API from this process, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench -workload steady -seed 1 -seconds 10 -trace 0
//
// run.sh builds it from the checkout and runs it; BENCHMARK.json at the
// repository root declares the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"dbp/internal/analysis"
	"dbp/internal/load/hist"
	"dbp/internal/serve"
)

func main() {
	name := flag.String("workload", "steady", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "load-phase measuring time")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds float64, traced bool) error {
	runtime.GOMAXPROCS(procs)
	sp, err := lookupSpec(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e, err := newEnv(sp, seed, tmp)
	if err != nil {
		return err
	}
	var rep *report
	if traced {
		rep, err = e.traceRun(seconds)
	} else {
		rep, err = e.measureRun(seconds)
	}
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ctx := map[string]any{
		"workload": name, "seed": seed, "trace": traced,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"shards": shards, "jobs": e.sc.jobs, "ops_per_round": e.sc.ops(), "rounds": rep.rounds,
		"samples": rep.samples, "sys_mib": ms.Sys >> 20,
	}
	out := result{Correct: true, Attempted: rep.attempted, Failed: 0, Metrics: rep.metrics}
	for _, v := range []any{ctx, out} {
		buf, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
	}
	return nil
}

// newEnv generates the workload's script from the seed and, for the
// durable workload, the journal its setups recover; tmp is the run's
// scratch directory.
func newEnv(sp spec, seed int64, tmp string) (*env, error) {
	sc, err := makeScript(sp, seed)
	if err != nil {
		return nil, err
	}
	e := &env{sp: sp, sc: sc, tmp: tmp}
	if sp.durable {
		if err := e.seedJournal(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// report is what a run prints.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	rounds    int
}

// setupsPerRound is how many times each round builds the service; the
// last build carries the load, and setup_s is the median of all builds.
const setupsPerRound = 9

// round is one measured load phase and the builds before it.
type round struct {
	setup   []float64     // seconds per build
	wall    float64       // load phase, seconds
	ops     int           // ops driven in the load phase
	lat     *hist.Hist    // one value per client call, all clients
	costs   [][10]float64 // per client, mean ns per call in each tenth
	heapMiB float64
	placed  [][]int32 // per shard, server of every op in the script
	stats   serve.Stats
	final   serve.Stats
	mem     memSample // runtime counters over the load phase
	calls   int       // client calls: ops, or frames on the wire
	spans   []*wireSpans
	usage   float64
}

// runRound builds the service setupsPerRound times, drives the load
// phase through the last build, and checks its outputs.
func (e *env) runRound(traced bool) (*round, error) {
	r := &round{}
	var s *session
	for i := 0; i < setupsPerRound; i++ {
		if s != nil {
			if _, err := s.close(); err != nil {
				return nil, err
			}
		}
		var dur time.Duration
		var err error
		if s, dur, err = e.open(e.sp.durable, e.sp.wire); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, dur.Seconds())
	}
	from := e.from()
	n := len(e.sc.shards)
	r.placed = make([][]int32, n)
	lats := make([]*hist.Hist, n)
	marks := make([]*tenths, n)
	failed := make([]int, n)
	errs := make([]error, n)
	r.spans = make([]*wireSpans, n) // nil entries record no spans
	for si, ops := range e.sc.shards {
		r.placed[si] = make([]int32, len(ops))
		if e.sp.durable {
			copy(r.placed[si], e.seedPlaced[si])
		}
		calls := len(ops) - from
		if e.sp.wire {
			calls = frames(calls)
		}
		lats[si], marks[si] = hist.New(), &tenths{n: calls}
		r.calls += calls
		r.ops += len(ops) - from
		if traced && e.sp.wire {
			r.spans[si] = newWireSpans()
		}
	}
	before := readMem(true)
	start := time.Now()
	e.eachShard(func(si int) {
		ops, placed := e.sc.shards[si][from:], r.placed[si][from:]
		marks[si].start = time.Now()
		if e.sp.wire {
			failed[si], errs[si] = s.conns[si].drive(ops, placed, lats[si], marks[si], r.spans[si])
		} else {
			failed[si] = driveInproc(s.d, ops, placed, lats[si], marks[si])
		}
	})
	r.wall = time.Since(start).Seconds()
	after := readMem(false)
	r.heapMiB = (float64(readMem(true).heap) - float64(before.heap)) / (1 << 20)
	r.mem = memSample{mallocs: after.mallocs - before.mallocs, gcs: after.gcs - before.gcs, pauseNs: after.pauseNs - before.pauseNs}
	r.stats = s.d.Stats()
	final, cerr := s.close()
	r.final = final
	if err := errors.Join(append(errs, cerr)...); err != nil {
		return nil, err
	}
	r.lat = hist.New()
	for si := range e.sc.shards {
		r.lat.Merge(lats[si])
		r.costs = append(r.costs, marks[si].cost())
		if failed[si] > 0 {
			return nil, fmt.Errorf("shard %d: %d of %d ops failed", si, failed[si], len(e.sc.shards[si])-from)
		}
	}
	r.usage = final.UsageTime / e.sc.lower
	return r, e.check(r)
}

// check fails the run on any wrong output.
func (e *env) check(r *round) error {
	arr, dep := r.final.Arrivals+e.seedArr, r.final.Departures+e.seedDep
	if arr != uint64(e.sc.jobs) || dep != uint64(e.sc.jobs) {
		return fmt.Errorf("served %d arrivals and %d departures for %d jobs", arr, dep, e.sc.jobs)
	}
	if r.final.OpenServers != 0 {
		return fmt.Errorf("%d servers still open after the last departure", r.final.OpenServers)
	}
	if hi := analysis.FirstFitUpperBound(e.sp.mu); !(r.usage >= 1 && r.usage <= hi) {
		return fmt.Errorf("usage ratio %v outside [1, %v]", r.usage, hi)
	}
	return nil
}

// sameOutputs fails when two rounds of one script placed any op
// differently or billed a different usage time.
func sameOutputs(a, b *round) error {
	if a.usage != b.usage {
		return fmt.Errorf("usage ratio %v in one round, %v in another", a.usage, b.usage)
	}
	for si := range a.placed {
		if i := firstDiff(a.placed[si], b.placed[si]); i >= 0 {
			return fmt.Errorf("shard %d op %d placed on server %d in one round, %d in another", si, i, a.placed[si][i], b.placed[si][i])
		}
	}
	return nil
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// rounds runs rounds for about seconds of measuring (at least
// minRounds of them): a round starts only while the time left exceeds
// half a round, so a run overshoots or stops short of seconds by half a
// round at most. Every round must serve identical outputs.
func (e *env) rounds(seconds float64, minRounds int, traced func(i int) bool) ([]*round, error) {
	var rs []*round
	start := time.Now()
	for i := 0; ; i++ {
		if spent := time.Since(start).Seconds(); i >= minRounds && spent+spent/float64(i)/2 >= seconds {
			break
		}
		r, err := e.runRound(traced(i))
		if err != nil {
			return nil, err
		}
		if len(rs) > 0 {
			if err := sameOutputs(rs[0], r); err != nil {
				return nil, err
			}
			if !traced(i) {
				r.placed = nil // only the first round's and traced rounds' are used later
			}
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// measureRun is the untraced run: the end-to-end metrics.
func (e *env) measureRun(seconds float64) (*report, error) {
	rs, err := e.rounds(seconds, 2, func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	var setup, opsPerS, p50, p99, heap []float64
	var costs [][10]float64
	rep := &report{samples: map[string]int{}, rounds: len(rs)}
	for _, r := range rs {
		setup = append(setup, r.setup...)
		opsPerS = append(opsPerS, float64(r.ops)/r.wall)
		rep.attempted += r.ops
		p50 = append(p50, float64(r.lat.Quantile(0.50))/1e3)
		p99 = append(p99, float64(r.lat.Quantile(0.99))/1e3)
		heap = append(heap, r.heapMiB)
		costs = append(costs, r.costs...)
		rep.samples["call"] += r.calls
	}
	rep.samples["setup"] = len(setup)
	rep.metrics = map[string]metric{
		"setup_s":     {median(setup), "s"},
		"ops_per_s":   {trimmedMean(opsPerS), "1/s"},
		"call_p50_us": {trimmedMean(p50), "us"},
		"call_p99_us": {trimmedMean(p99), "us"},
		"usage_ratio": {rs[0].usage, "ratio"},
		"heap_mib":    {median(heap), "MiB"},
		"slowdown":    {slowdown(costs), "ratio"},
	}
	return rep, nil
}

// trimmedMean is the mean of per-round figures without the lowest and
// highest when there are at least four: rounds disturbed by another
// tenant of the machine do not move it, and unlike a median it does not
// jump between two clusters of values.
func trimmedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) >= 4 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
