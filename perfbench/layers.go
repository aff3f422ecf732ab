package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"dbp/internal/bins"
	"dbp/internal/load/hist"
	"dbp/internal/packing"
	"dbp/internal/wal"
)

// The traced run derives the per-layer metrics. Spans are recorded by
// this benchmark around its own calls into each layer's public API:
// inline during the load where the benchmark crosses a layer boundary
// (the service call; on the wire workload each frame's encoding, round
// trip and results decoding), and by replaying the served op sequences
// into the layers below the service (packing.Stream, bins.Index,
// wal.Log), whose placements must match the served ones bit for bit.

// traceRun alternates untraced and traced rounds for the measuring
// time, then replays the last traced round's ops into each layer.
func (e *env) traceRun(seconds float64) (*report, error) {
	rs, err := e.rounds(seconds, 2, func(i int) bool { return i%2 == 1 })
	if err != nil {
		return nil, err
	}
	var plain, traced []float64
	var tr *round
	rep := &report{samples: map[string]int{}, rounds: len(rs)}
	for i, r := range rs {
		rep.attempted += r.ops
		if i%2 == 1 {
			traced = append(traced, float64(r.ops)/r.wall)
			tr = r
		} else {
			plain = append(plain, float64(r.ops)/r.wall)
		}
	}
	m := map[string]metric{}

	pk, err := e.replayPacking(tr.placed)
	if err != nil {
		return nil, err
	}
	for k, v := range pk.metrics {
		m[k] = v
	}

	// The service layer: the benchmark's own calls into serve. On the
	// in-process workloads those are the traced round's Arrive/Depart
	// calls; the wire server makes its ApplyBatch calls itself, so the
	// wire workload replays the same frames through ApplyBatch.
	callNs, allocs := tr.lat.MeanNS(), float64(tr.mem.mallocs)/float64(tr.ops)
	var batchNs float64 // server-side time per frame, for the transport share
	if e.sp.wire {
		b, err := e.replayBatches(0, tr.placed)
		if err != nil {
			return nil, err
		}
		callNs, allocs, batchNs = sumNs(b.lat)/float64(b.ops), b.allocsPerOp, b.lat.MeanNS()
	}
	lat := tr.stats.Latency
	m["serve.call_ns"] = metric{callNs, "ns"}
	m["serve.self_ns"] = metric{callNs - pk.loadNsPerOp, "ns"}
	m["serve.server_p50_us"] = metric{max(lat["arrive"].P50US, lat["depart"].P50US), "us"}
	m["serve.server_p99_us"] = metric{max(lat["arrive"].P99US, lat["depart"].P99US), "us"}
	m["serve.batch_ops_mean"] = metric{float64(tr.ops) / float64(tr.calls), "count"}
	m["serve.allocs_per_op"] = metric{allocs, "count"}

	// The wire layer. Off the wire workload, a probe drives each
	// shard's journal prefix over a loopback connection.
	rtt, spans, ops := tr.lat.MeanNS(), tr.spans, tr.ops
	if !e.sp.wire {
		var probe *round
		if probe, err = e.probeWire(tr.placed); err != nil {
			return nil, err
		}
		rtt, spans, ops = probe.lat.MeanNS(), probe.spans, probe.ops
		b, err := e.replayBatches(e.sp.seedOps, tr.placed)
		if err != nil {
			return nil, err
		}
		batchNs = b.lat.MeanNS()
	}
	var enc, dec float64
	for _, s := range spans {
		enc, dec = enc+sumNs(s.encode), dec+sumNs(s.decode)
	}
	m["wire.encode_ns_per_op"] = metric{enc / float64(ops), "ns"}
	m["wire.decode_ns_per_op"] = metric{dec / float64(ops), "ns"}
	m["wire.transport_us"] = metric{(rtt - batchNs) / 1e3, "us"}

	w, err := e.replayWAL(tr.placed, pk.snapshots)
	if err != nil {
		return nil, err
	}
	for k, v := range w {
		m[k] = v
	}

	m["runtime.gc_cycles"] = metric{float64(tr.mem.gcs), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(tr.mem.pauseNs) / 1e6, "ms"}
	m["runtime.allocs_per_op"] = metric{float64(tr.mem.mallocs) / float64(tr.ops), "count"}
	m["trace.overhead"] = metric{median(plain) / median(traced), "ratio"}
	rep.metrics = m
	rep.samples["traced_rounds"] = len(traced)
	rep.samples["untraced_rounds"] = len(plain)
	return rep, nil
}

// sumNs is the total of the values a digest recorded.
func sumNs(h *hist.Hist) float64 { return h.MeanNS() * float64(h.Count()) }

// packingReplay is what replaying the served ops into fresh streams
// measured.
type packingReplay struct {
	metrics map[string]metric
	// loadNsPerOp is the mean replay cost, query included, of the ops
	// the load phase drives (on durable, those after the journal prefix).
	loadNsPerOp float64
	snapshots   []packing.Snapshot // per shard, after its first seedOps ops
}

// replayPacking feeds each shard's ops, one shard at a time, into a
// fresh packing.Stream: the engine beneath the service, without its
// queues. Before each arrival it also asks the ledger's index the
// First Fit question the policy is about to ask.
func (e *env) replayPacking(served [][]int32) (*packingReplay, error) {
	p := &packingReplay{}
	arrive, depart, query, load := hist.New(), hist.New(), hist.New(), hist.New()
	var costs [][10]float64
	var mallocs uint64
	var ever, peak int
	var restore float64
	for si, ops := range e.sc.shards {
		algo, err := packing.ByName(algorithm)
		if err != nil {
			return nil, err
		}
		st := packing.NewStream(algo, 1, e.sp.dim)
		ix := st.Ledger().Index()
		if ix == nil {
			return nil, errors.New("replay stream has no placement index")
		}
		marks := &tenths{n: len(ops), start: time.Now()}
		before := readMem(false)
		for k := range ops {
			o := &ops[k]
			marks.step(k)
			var srv int
			t0 := time.Now()
			if o.depart {
				srv, _, err = st.Depart(o.id, o.t)
				depart.Record(time.Since(t0))
			} else {
				if o.sizes != nil {
					ix.FirstFittingVec(o.sizes)
				} else {
					ix.FirstFitting(o.size - bins.Eps)
				}
				t1 := time.Now()
				srv, _, err = st.Arrive(o.id, o.size, o.sizes, o.t)
				query.Record(t1.Sub(t0))
				arrive.Record(time.Since(t1))
			}
			if k >= e.from() {
				load.Record(time.Since(t0))
			}
			if err != nil {
				return nil, fmt.Errorf("packing replay shard %d op %d: %w", si, k, err)
			}
			if int32(srv) != served[si][k] {
				return nil, fmt.Errorf("packing replay shard %d op %d: server %d, the service placed it on %d", si, k, srv, served[si][k])
			}
			if k+1 == e.sp.seedOps {
				p.snapshots = append(p.snapshots, st.Snapshot())
			}
		}
		marks.end()
		mallocs += readMem(false).mallocs - before.mallocs
		costs = append(costs, marks.cost())
		ever += st.ServersUsed()
		peak += st.PeakServers()

		var times []float64
		for i := 0; i < 5; i++ {
			algo, err := packing.ByName(algorithm)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := packing.RestoreStream(algo, p.snapshots[si]); err != nil {
				return nil, err
			}
			times = append(times, time.Since(t0).Seconds())
		}
		restore += median(times)
	}
	p.loadNsPerOp = load.MeanNS()
	p.metrics = map[string]metric{
		"packing.arrive_ns":     {arrive.MeanNS(), "ns"},
		"packing.depart_ns":     {depart.MeanNS(), "ns"},
		"packing.slowdown":      {slowdown(costs), "ratio"},
		"packing.allocs_per_op": {float64(mallocs) / float64(e.sc.ops()), "count"},
		"packing.restore_s":     {restore, "s"},
		"bins.query_ns":         {query.MeanNS(), "ns"},
		"bins.servers_ever":     {float64(ever), "count"},
		"bins.open_peak":        {float64(peak), "count"},
		"bins.ever_per_open":    {float64(ever) / float64(peak), "ratio"},
	}
	return p, nil
}

// batchReplay is what replaying ops through ApplyBatch measured.
type batchReplay struct {
	lat         *hist.Hist // one value per batch, all shards
	ops         int
	allocsPerOp float64
}

// replayBatches applies each shard's ops (the first n, or all when n is
// 0) through Dispatcher.ApplyBatch in frame-sized batches on a fresh
// in-memory service, one goroutine per shard as on the wire.
func (e *env) replayBatches(n int, served [][]int32) (*batchReplay, error) {
	s, _, err := e.open(false, false)
	if err != nil {
		return nil, err
	}
	lats := make([]*hist.Hist, len(e.sc.shards))
	placed := make([][]int32, len(e.sc.shards))
	failed := make([]int, len(e.sc.shards))
	ops := 0
	for si, shard := range e.sc.shards {
		k := len(shard)
		if n > 0 {
			k = min(n, k)
		}
		lats[si], placed[si] = hist.New(), make([]int32, k)
		ops += k
	}
	before := readMem(false)
	e.eachShard(func(si int) {
		failed[si] = driveBatch(s.d, e.sc.shards[si][:len(placed[si])], placed[si], lats[si])
	})
	b := &batchReplay{lat: hist.New(), ops: ops, allocsPerOp: float64(readMem(false).mallocs-before.mallocs) / float64(ops)}
	if _, err := s.close(); err != nil {
		return nil, err
	}
	for si := range lats {
		b.lat.Merge(lats[si])
		if err := samePrefix("batch replay", si, failed[si], placed[si], served[si]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func samePrefix(what string, si, failed int, placed, served []int32) error {
	if failed > 0 {
		return fmt.Errorf("%s shard %d: %d ops failed", what, si, failed)
	}
	if i := firstDiff(placed, served[:len(placed)]); i >= 0 {
		return fmt.Errorf("%s shard %d op %d: server %d, the service placed it on %d", what, si, i, placed[i], served[i])
	}
	return nil
}

// probeWire drives each shard's first seedOps ops over a fresh
// loopback wire session with spans on.
func (e *env) probeWire(served [][]int32) (*round, error) {
	s, _, err := e.open(false, true)
	if err != nil {
		return nil, err
	}
	r := &round{lat: hist.New()}
	n := e.sp.seedOps
	lats := make([]*hist.Hist, len(e.sc.shards))
	placed := make([][]int32, len(e.sc.shards))
	failed := make([]int, len(e.sc.shards))
	errs := make([]error, len(e.sc.shards))
	for si := range e.sc.shards {
		lats[si], placed[si] = hist.New(), make([]int32, n)
		r.spans = append(r.spans, newWireSpans())
		r.ops += n
	}
	e.eachShard(func(si int) {
		failed[si], errs[si] = s.conns[si].drive(e.sc.shards[si][:n], placed[si], lats[si], nil, r.spans[si])
	})
	_, cerr := s.close()
	if err := errors.Join(append(errs, cerr)...); err != nil {
		return nil, err
	}
	for si := range lats {
		r.lat.Merge(lats[si])
		if err := samePrefix("wire probe", si, failed[si], placed[si], served[si]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replayWAL journals each shard's first seedOps ops, as the service
// records them, into a fresh wal.Log under the durable workload's fsync
// policy, then reads the journal back and saves the shard's snapshot
// at that point.
func (e *env) replayWAL(served [][]int32, snaps []packing.Snapshot) (map[string]metric, error) {
	pol, err := wal.ParseFsyncPolicy(fsyncPolicy)
	if err != nil {
		return nil, err
	}
	appendNs := hist.New()
	var bytes int64
	var replay, snapshot float64
	for si, ops := range e.sc.shards {
		l, err := wal.Open(filepath.Join(e.tmp, fmt.Sprintf("wal-%d", si)), wal.Options{Fsync: pol})
		if err != nil {
			return nil, err
		}
		for k, o := range ops[:e.sp.seedOps] {
			rec := wal.Record{Kind: wal.KindArrive, ID: int64(o.id), Time: o.t, Server: served[si][k], Size: o.size, Sizes: o.sizes}
			if o.depart {
				rec = wal.Record{Kind: wal.KindDepart, ID: int64(o.id), Time: o.t, Server: served[si][k]}
			}
			t0 := time.Now()
			err := l.Append(&rec)
			appendNs.Record(time.Since(t0))
			if err != nil {
				l.Close()
				return nil, err
			}
		}
		bytes += l.Stats().Bytes
		records := 0
		t0 := time.Now()
		err = l.Replay(0, func(uint64, wal.Record) error { records++; return nil })
		replay += time.Since(t0).Seconds()
		if err == nil && records != e.sp.seedOps {
			err = fmt.Errorf("journal replay of shard %d read %d records, %d appended", si, records, e.sp.seedOps)
		}
		var payload []byte
		if err == nil {
			payload, err = json.Marshal(snaps[si])
		}
		if err == nil {
			t0 = time.Now()
			err = l.SaveSnapshot(uint64(e.sp.seedOps), time.Now().UnixNano(), payload)
			snapshot += time.Since(t0).Seconds()
		}
		if err := errors.Join(err, l.Close()); err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"wal.append_ns":    {appendNs.MeanNS(), "ns"},
		"wal.bytes_per_op": {float64(bytes) / float64(appendNs.Count()), "B"},
		"wal.snapshot_ms":  {snapshot * 1e3, "ms"},
		"wal.replay_s":     {replay, "s"},
	}, nil
}
