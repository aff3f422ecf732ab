package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// tiny shrinks a workload to a few thousand jobs with the same shape.
func tiny(sp spec) spec {
	sp.jobs, sp.seedOps, sp.snapEvery = 3000, 600, 1000
	return sp
}

// outputs is what must repeat exactly at one seed.
type outputs struct {
	usage  float64
	ever   float64
	placed [][]int32
}

func runTiny(t *testing.T, sp spec, seed int64) outputs {
	t.Helper()
	e, err := newEnv(tiny(sp), seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.runRound(false)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := e.replayPacking(r.placed)
	if err != nil {
		t.Fatal(err)
	}
	return outputs{r.usage, pk.metrics["bins.servers_ever"].Value, r.placed}
}

func (o outputs) equal(p outputs) bool {
	return o.usage == p.usage && o.ever == p.ever &&
		slices.EqualFunc(o.placed, p.placed, func(a, b []int32) bool { return slices.Equal(a, b) })
}

func TestDeterministicAtOneSeed(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := runTiny(t, sp, 7), runTiny(t, sp, 7)
			if !a.equal(b) {
				t.Fatalf("seed 7 twice: usage %v/%v, servers ever %v/%v, or placements differ", a.usage, b.usage, a.ever, b.ever)
			}
			if c := runTiny(t, sp, 8); c.usage == a.usage || c.ever == a.ever && slices.Equal(c.placed[0], a.placed[0]) {
				t.Fatalf("seeds 7 and 8 gave the same outputs (usage %v, servers ever %v)", a.usage, a.ever)
			}
		})
	}
}

// The durable workload recovers its journal bit for bit, so it bills
// exactly what steady bills for the same script.
func TestDurableMatchesSteady(t *testing.T) {
	steady, err := lookupSpec("steady")
	if err != nil {
		t.Fatal(err)
	}
	durable, err := lookupSpec("durable")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := runTiny(t, steady, 3), runTiny(t, durable, 3); !a.equal(b) {
		t.Fatalf("steady billed %v over %v servers, durable %v over %v, or placements differ", a.usage, a.ever, b.usage, b.ever)
	}
}

// Both runs print exactly the metrics BENCHMARK.json declares, with
// their units.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := newEnv(tiny(sp), 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			run := e.measureRun
			if traced {
				want, run = bench.PerLayer, e.traceRun
			}
			rep, err := run(0)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(rep.metrics), len(want))
			}
			for _, d := range want {
				if m, ok := rep.metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s reported as %+v, declared in %s", w.Name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}
