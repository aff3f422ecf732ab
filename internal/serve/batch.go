package serve

import (
	"sync"
	"time"

	"dbp/internal/item"
)

// BatchOp is one operation inside an ApplyBatch call. A batch is the
// transport-level amortization unit: the dispatcher groups a batch's
// ops by shard and enqueues one envelope per shard, so B ops cost
// O(shards) channel round trips instead of B.
type BatchOp struct {
	Depart bool
	ID     item.ID
	Size   float64
	Sizes  []float64
	// HasTime marks an explicit event time; otherwise the op is
	// stamped with the service clock, read once per batch.
	HasTime bool
	Time    float64
}

// BatchResult is one op's outcome. Err is nil on success; on failure
// it is the same typed sentinel the single-op API returns (mapped to
// status codes by the transports), and Server/Flag are zero.
type BatchResult struct {
	Server int
	Flag   bool // opened (arrive) / closed (depart)
	Time   float64
	Err    error
}

// batchEntry is one op routed into a shard's batch envelope, with its
// position in the caller's results slice.
type batchEntry struct {
	depart   bool
	id       item.ID
	size     float64
	sizes    []float64
	at       float64
	assigned bool
	pos      int
}

// batchPlan is the reusable scratch of one ApplyBatch call: the
// per-shard envelope table and the order shards were first touched in.
type batchPlan struct {
	envs  []*request
	order []int
}

var planPool = sync.Pool{New: func() any { return &batchPlan{} }}

// ApplyBatch applies ops against the dispatcher and scatters each op's
// outcome into results (len(results) must be >= len(ops); results[i]
// answers ops[i]). Ops are grouped by shard preserving their relative
// order, one envelope is enqueued per involved shard, and each shard
// owner applies its sub-batch sequentially — so two ops on the same
// job in one batch keep their order, and per-shard semantics are
// exactly those of the equivalent single-op calls. Unstamped ops share
// one service-clock read. Safe for concurrent use.
func (d *Dispatcher) ApplyBatch(ops []BatchOp, results []BatchResult) {
	if len(ops) == 0 {
		return
	}
	start := time.Now()
	now := d.clock()

	plan := planPool.Get().(*batchPlan)
	if cap(plan.envs) < len(d.shards) {
		plan.envs = make([]*request, len(d.shards))
	}
	envs := plan.envs[:len(d.shards)]
	order := plan.order[:0]

	for i := range ops {
		op := &ops[i]
		si := d.ShardFor(op.ID)
		req := envs[si]
		if req == nil {
			req = reqPool.Get().(*request)
			req.out = results
			envs[si] = req
			order = append(order, si)
		}
		at, assigned := op.Time, false
		if !op.HasTime {
			at, assigned = now, true
		}
		sizes := op.Sizes
		if len(sizes) > 0 {
			// Copy at the API boundary, exactly like Arrive: the ledger
			// retains the vector, and transports reuse their decode
			// buffers.
			sizes = append([]float64(nil), sizes...)
		}
		req.ops = append(req.ops, batchEntry{
			depart: op.Depart, id: op.ID, size: op.Size, sizes: sizes,
			at: at, assigned: assigned, pos: i,
		})
	}

	// Enqueue every shard's envelope first, then collect replies: the
	// shards run their sub-batches concurrently, and a full queue only
	// delays its own shard's hand-off.
	for _, si := range order {
		req := envs[si]
		if d.shards[si].enqueue(req) {
			continue
		}
		for _, e := range req.ops {
			results[e.pos] = BatchResult{Err: ErrClosed}
			d.metrics.reject(ErrClosed)
		}
		putRequest(req)
		envs[si] = nil // answered here; skip the reply wait
	}
	for _, si := range order {
		req := envs[si]
		if req == nil {
			continue
		}
		<-req.reply
		putRequest(req)
		envs[si] = nil
	}

	// Per-op service-time accounting, so batched and single-op
	// traffic share one latency ledger; plus the batch-shape counters.
	for i := range ops {
		if ops[i].Depart {
			d.metrics.observeDepart(start)
		} else {
			d.metrics.observeArrive(start)
		}
	}
	d.metrics.batches.Add(1)
	d.metrics.batchOps.Add(uint64(len(ops)))

	plan.order = order[:0]
	planPool.Put(plan)
}
