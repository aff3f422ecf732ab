package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dbp/internal/load/hist"
	"dbp/internal/serve"
	"dbp/internal/wire"
)

// window is the number of batch frames a wire connection keeps in
// flight: the next frame is on the wire while the server applies the
// previous one.
const window = 2

// env is everything a workload's rounds share: the script, a scratch
// directory, and on the durable workload the crash image every setup
// recovers from plus what the seeding phase served.
type env struct {
	sp  spec
	sc  *script
	tmp string

	image      string    // durable: journal directory as left by a crash
	seedPlaced [][]int32 // durable: servers of each shard's first seedOps ops
	seedArr    uint64    // durable: arrivals and departures served while seeding
	seedDep    uint64
	runs       int // durable: data directories handed out so far
}

// from is the index of each shard's first op driven in the load phase.
func (e *env) from() int {
	if e.sp.durable {
		return e.sp.seedOps
	}
	return 0
}

func (e *env) config(dataDir string, snapEvery int) serve.Config {
	cfg := serve.Config{Algorithm: algorithm, Shards: shards, Dim: e.sp.dim}
	if dataDir != "" {
		cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery = dataDir, fsyncPolicy, snapEvery
	}
	return cfg
}

// seedJournal runs each shard's first seedOps ops through a durable
// dispatcher and copies its data directory while that dispatcher is
// still open: the copy holds a snapshot and an uncovered journal tail,
// the state a crash leaves. ShardEvents reads the journal back, which
// flushes every buffered append to the files first.
func (e *env) seedJournal() error {
	live := filepath.Join(e.tmp, "seed")
	d, err := serve.New(e.config(live, e.sp.seedOps*2/3))
	if err != nil {
		return err
	}
	e.seedPlaced = make([][]int32, shards)
	errs := make([]error, shards)
	e.eachShard(func(si int) {
		e.seedPlaced[si] = make([]int32, e.sp.seedOps)
		if bad := driveInproc(d, e.sc.shards[si][:e.sp.seedOps], e.seedPlaced[si], nil, nil); bad > 0 {
			errs[si] = fmt.Errorf("seeding shard %d: %d ops failed", si, bad)
		}
	})
	for si := range e.sc.shards {
		d.ShardEvents(si)
	}
	e.image = filepath.Join(e.tmp, "image")
	cerr := copyDir(live, e.image)
	st := d.Close()
	e.seedArr, e.seedDep = st.Arrivals, st.Departures
	if err := errors.Join(append(errs, cerr, d.DurabilityErr())...); err != nil {
		return err
	}
	return os.RemoveAll(live)
}

// eachShard runs fn for every shard at once, one goroutine per shard
// as the clients run, and returns when all have finished.
func (e *env) eachShard(fn func(si int)) {
	var wg sync.WaitGroup
	for si := range e.sc.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fn(si)
		}(si)
	}
	wg.Wait()
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, buf, 0o644)
	})
}

// session is one constructed service: the dispatcher and, on the wire
// workload, the loopback server with one client connection per shard.
type session struct {
	d      *serve.Dispatcher
	srv    *wire.Server
	served chan error
	conns  []*wireConn
	dir    string
}

// open builds a session and returns the time until the first op can
// be issued: serve.New, plus WAL recovery when durable, plus listener
// and handshakes when wired. Copying the crash image into a fresh data
// directory happens before the clock starts.
func (e *env) open(durable, wired bool) (*session, time.Duration, error) {
	s := &session{}
	if durable {
		e.runs++
		s.dir = filepath.Join(e.tmp, fmt.Sprintf("data-%d", e.runs))
		if err := copyDir(e.image, s.dir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	d, err := serve.New(e.config(s.dir, e.sp.snapEvery))
	if err != nil {
		return nil, 0, err
	}
	s.d = d
	if wired {
		if err := s.listen(); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

func (s *session) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = wire.NewServer(s.d)
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < shards; i++ {
		c, err := dialWire(ln.Addr().String())
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	return nil
}

// close stops the session and returns the service's final stats.
func (s *session) close() (serve.Stats, error) {
	var errs []error
	for _, c := range s.conns {
		errs = append(errs, c.close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close(), <-s.served)
	}
	st := s.d.Close()
	errs = append(errs, s.d.DurabilityErr())
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return st, errors.Join(errs...)
}

// tenths records the elapsed time at each tenth of a drive's n steps,
// for the late-versus-early cost ratio.
type tenths struct {
	at    [11]int64
	n, j  int
	start time.Time
}

func (m *tenths) step(k int) {
	for m != nil && m.j < 10 && k == m.j*m.n/10 {
		m.at[m.j] = int64(time.Since(m.start))
		m.j++
	}
}

func (m *tenths) end() {
	if m != nil {
		m.at[10] = int64(time.Since(m.start))
	}
}

// cost returns the mean time per step within each tenth, in ns.
func (m *tenths) cost() [10]float64 {
	var c [10]float64
	for j := range c {
		lo, hi := j*m.n/10, (j+1)*m.n/10
		c[j] = float64(m.at[j+1]-m.at[j]) / float64(max(hi-lo, 1))
	}
	return c
}

// slowdown is the uptime drift of per-step cost: the mean time per step
// over the last tenth of a drive divided by that over its second tenth
// (the first holds warm-up). Single tenths of one drive are noisy on a
// shared machine, so the per-tenth costs of all drives are averaged
// and the ratio is read off the least-squares line through tenths two
// to ten.
func slowdown(costs [][10]float64) float64 {
	var sx, sy, sxx, sxy, n float64
	for _, c := range costs {
		for j := 1; j < 10; j++ {
			x, y := float64(j), c[j]
			sx, sy, sxx, sxy, n = sx+x, sy+y, sxx+x*x, sxy+x*y, n+1
		}
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := (sy - b*sx) / n
	return (a + 9*b) / (a + b)
}

// driveInproc issues ops one call at a time and writes each op's
// server into placed; lat (one value per call) and marks may be nil.
// It returns the number of failed ops.
func driveInproc(d *serve.Dispatcher, ops []op, placed []int32, lat *hist.Hist, marks *tenths) (failed int) {
	for k := range ops {
		o := &ops[k]
		marks.step(k)
		t0 := time.Now()
		var srv int
		var err error
		if o.depart {
			var dep serve.Departure
			dep, err = d.Depart(o.id, &o.t)
			srv = dep.Server
		} else {
			var p serve.Placement
			p, err = d.Arrive(o.id, o.size, o.sizes, &o.t)
			srv = p.Server
		}
		if lat != nil {
			lat.Record(time.Since(t0))
		}
		placed[k] = int32(srv)
		if err != nil {
			placed[k] = -1
			failed++
		}
	}
	marks.end()
	return failed
}

func frames(n int) int { return (n + frameOps - 1) / frameOps }

// frameBounds returns the op range [lo, hi) of frame f.
func frameBounds(f, n int) (int, int) {
	return f * frameOps, min(n, (f+1)*frameOps)
}

// driveBatch applies ops through Dispatcher.ApplyBatch in frameOps-op
// batches, the call the wire server makes per frame; lat gets one value
// per batch.
func driveBatch(d *serve.Dispatcher, ops []op, placed []int32, lat *hist.Hist) (failed int) {
	bops := make([]serve.BatchOp, frameOps)
	res := make([]serve.BatchResult, frameOps)
	for f := 0; f < frames(len(ops)); f++ {
		lo, hi := frameBounds(f, len(ops))
		for k := lo; k < hi; k++ {
			o := &ops[k]
			bops[k-lo] = serve.BatchOp{Depart: o.depart, ID: o.id, Size: o.size, Sizes: o.sizes, HasTime: true, Time: o.t}
		}
		t0 := time.Now()
		d.ApplyBatch(bops[:hi-lo], res[:hi-lo])
		lat.Record(time.Since(t0))
		for k := lo; k < hi; k++ {
			placed[k] = int32(res[k-lo].Server)
			if res[k-lo].Err != nil {
				placed[k] = -1
				failed++
			}
		}
	}
	return failed
}

// wireConn is a client connection speaking the binary protocol,
// built from the package's public codec.
type wireConn struct {
	nc      net.Conn
	br      *bufio.Reader
	out     []byte
	payload []byte
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	if _, err := nc.Write(wire.AppendFrame(nil, wire.FrameHello, wire.AppendHello(nil, wire.Version))); err != nil {
		nc.Close()
		return nil, err
	}
	typ, p, err := c.readFrame()
	if err == nil && typ != wire.FrameHello {
		err = fmt.Errorf("wire handshake: frame type %d: %s", typ, p)
	}
	if err == nil {
		var v uint16
		if v, err = wire.ParseHello(p); err == nil && v != wire.Version {
			err = fmt.Errorf("wire handshake: server speaks version %d", v)
		}
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *wireConn) readFrame() (uint8, []byte, error) {
	var hdr [wire.FrameHeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n, err := wire.ParseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	p := c.payload[:n]
	_, err = io.ReadFull(c.br, p)
	return typ, p, err
}

// close tells the server this connection is done and closes it.
func (c *wireConn) close() error {
	_, werr := c.nc.Write(wire.AppendFrame(nil, wire.FrameGoAway, nil))
	return errors.Join(werr, c.nc.Close())
}

// wireSpans are the per-frame spans a traced wire drive records.
type wireSpans struct {
	encode, decode *hist.Hist
}

func newWireSpans() *wireSpans { return &wireSpans{hist.New(), hist.New()} }

// drive sends ops as pipelined frameOps-op batch frames and records
// each frame's round trip (write to results read) in lat; spans, when
// non-nil, also times each frame's encoding and its results' decoding.
func (c *wireConn) drive(ops []op, placed []int32, lat *hist.Hist, marks *tenths, spans *wireSpans) (failed int, err error) {
	n := frames(len(ops))
	var sent [window]time.Time
	next := 0
	for f := 0; f < n; f++ {
		for ; next < n && next < f+window; next++ {
			t0 := time.Now()
			lo, hi := frameBounds(next, len(ops))
			buf, off := wire.BeginFrame(c.out[:0], wire.FrameBatch)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-lo))
			for k := lo; k < hi; k++ {
				o := &ops[k]
				w := wire.Op{Kind: wire.OpArrive, ID: int64(o.id), Size: o.size, Sizes: o.sizes, Time: o.t, HasTime: true}
				if o.depart {
					w.Kind = wire.OpDepart
				}
				buf = wire.AppendOp(buf, &w)
			}
			c.out = wire.EndFrame(buf, off)
			sent[next%window] = time.Now()
			if spans != nil {
				spans.encode.Record(sent[next%window].Sub(t0))
			}
			if _, err := c.nc.Write(c.out); err != nil {
				return failed, err
			}
		}
		marks.step(f)
		typ, p, err := c.readFrame()
		if err != nil {
			return failed, err
		}
		got := time.Now()
		lat.Record(got.Sub(sent[f%window]))
		lo, hi := frameBounds(f, len(ops))
		if typ != wire.FrameResults || len(p) < 4 || int(binary.LittleEndian.Uint32(p)) != hi-lo {
			return failed, fmt.Errorf("frame %d: unexpected reply (type %d, %d bytes)", f, typ, len(p))
		}
		p = p[4:]
		var r wire.Result
		for k := lo; k < hi; k++ {
			m, err := wire.DecodeResult(p, &r)
			if err != nil {
				return failed, err
			}
			p = p[m:]
			placed[k] = r.Server
			if r.Status != wire.StatusOK {
				placed[k] = -1
				failed++
			}
		}
		if spans != nil {
			spans.decode.Record(time.Since(got))
		}
	}
	marks.end()
	return failed, nil
}

// memSample is a runtime.MemStats reading reduced to what rounds report.
type memSample struct {
	heap, mallocs, gcs, pauseNs uint64
}

// readMem reads the runtime's counters; with gc it first forces a
// collection so heap is the live heap.
func readMem(gc bool) memSample {
	if gc {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{heap: m.HeapAlloc, mallocs: m.Mallocs, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}
