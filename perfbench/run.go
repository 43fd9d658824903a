package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/sim"
)

const (
	// defaultSeed is the seed the pinned fingerprints were taken at.
	defaultSeed = 1
	// setupRepeats builds the system at least this many times per run,
	// and cheap set-ups repeat until setupBudget seconds (at most
	// maxSetups times); setup_s is the median.
	setupRepeats = 5
	setupBudget  = 1.5
	maxSetups    = 100
	// minOps is the least number of timed ops in a segment.
	minOps = 3
)

// system is one workload's system under test, built by setup and driven one op
// at a time. An op is one repetition of the workload's unit of work;
// op i runs slot i % slots(), and every repetition of a slot is the
// same simulated work, so its fingerprint must repeat exactly.
type system interface {
	// setup builds the system, instrumented when tr is non-nil, and
	// returns the time spent building the overlay.
	setup(tr *tracer) (time.Duration, error)
	// slots is the number of distinct ops.
	slots() int
	// warmup is the number of ops run untimed after set-up, a whole
	// number of slot cycles: lazy allocation (queue capacity, pools,
	// connections) is done and every slot has run before timing starts,
	// and live_heap_mb is read after them.
	warmup() int
	// op runs op i.
	op(i int) (opResult, error)
	// owners sizes a tracer: the number of execution contexts that run
	// handlers concurrently and the context of each node.
	owners() (int, func(proto.NodeID) int)
	// shards is the number of event loops a run's wall time is spread
	// over (0: not a simulator workload).
	shards() int
	// counters returns cumulative host-side counters the workload can
	// only read per segment (the live cluster's wire stats).
	counters() map[string]float64
	// settle waits until the system is idle: nothing runs that could
	// still write the tracer.
	settle() error
	// verify runs the workload's post-run checks; ref holds the slot
	// fingerprints the run settled on.
	verify(ref []string) error
	close()
}

// opResult is one op's outcome.
type opResult struct {
	units     int           // ops completed: 1, or launched transactions
	events    uint64        // simulator events
	msgs      int64         // messages sent
	nodes     int           // node count
	delivered int64         // (payload, node) deliveries
	expected  int64         // payloads × nodes
	runWall   time.Duration // wall time of the simulated run inside the op
	fp        string        // fingerprint
	lat       *metrics.LatencySketch
	spyHits   float64 // summed per-payload success probability of the spy estimate
	spyTrials int
	// counts are per-layer readings summed over ops; keys starting with
	// "_" feed ratios and are not emitted.
	counts map[string]float64
	// wall, when set, is the op's own timing, replacing the loop's
	// (the live op excludes the cluster upkeep it does between ops).
	wall time.Duration
	// wait is the live mailbox wait of the op's injection.
	wait time.Duration
	peak int // peak admission queue depth
}

type runConfig struct {
	seconds float64
	trace   bool
	setups  int
	// expect pins the slot fingerprints (nil: the run's first op of
	// each slot sets them).
	expect []string
}

// opSpan is one timed op, kept in full by traced runs.
type opSpan struct {
	Op     int64 `json:"op"`
	Traced bool  `json:"traced"`
	Start  int64 `json:"start_ns"`
	DurNs  int64 `json:"dur_ns"`
	Units  int   `json:"units"`
}

type report struct {
	metrics      map[string]float64
	attempted    int
	failed       int
	failures     []string
	fingerprints []string
	opSpans      []opSpan
	spans        []spanRec
	// selfNs are the traced run's per-layer self times and capacityNs
	// the owner-seconds they were measured in (owners × segment wall).
	selfNs     map[string]int64
	capacityNs int64
}

//go:embed fingerprints.json
var pinnedJSON []byte

// pinned holds the fingerprints of every slot at defaultSeed.
var pinned = func() map[string][]string {
	var m map[string][]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: fingerprints.json: %v", err))
	}
	return m
}()

// checker holds the expected fingerprint of each slot: the pinned one at
// the default seed, otherwise the first one the run produced.
type checker struct {
	ref []string
	rep *report
}

func newChecker(rep *report, slots int, expect []string) *checker {
	c := &checker{ref: make([]string, slots), rep: rep}
	copy(c.ref, expect)
	return c
}

// check records an op outcome and reports whether it passed.
func (c *checker) check(i int, r opResult, err error) bool {
	units := max(r.units, 1)
	c.rep.attempted += units
	slot := i % len(c.ref)
	switch {
	case err != nil:
		c.fail(units, "op %d: %v", i, err)
		return false
	case c.ref[slot] == "":
		c.ref[slot] = r.fp
	case c.ref[slot] != r.fp:
		c.fail(units, "op %d slot %d: fingerprint %s, want %s", i, slot, r.fp, c.ref[slot])
		return false
	}
	return true
}

func (c *checker) fail(units int, format string, args ...any) {
	c.rep.failed += units
	c.rep.failures = append(c.rep.failures, fmt.Sprintf(format, args...))
}

// segment is the outcome of one timed loop.
type segment struct {
	ops   []opResult
	walls []time.Duration
	wall  time.Duration
	mem   [2]runtime.MemStats
	ctr   map[string]float64 // counters() delta
}

func (s *segment) units() int {
	n := 0
	for _, r := range s.ops {
		n += r.units
	}
	return n
}

// opsPerSec is completed units over the summed op wall time.
func (s *segment) opsPerSec() float64 {
	var wall time.Duration
	for _, d := range s.walls {
		wall += d
	}
	return float64(s.units()) / wall.Seconds()
}

// measure runs ops for the wall-clock budget, checking each.
func measure(w system, c *checker, rep *report, next *int, seconds float64, tr *tracer, t0 time.Time) segment {
	var s segment
	before := w.counters()
	runtime.GC()
	runtime.ReadMemStats(&s.mem[0])
	start := time.Now()
	// Whole cycles of slots keep a run's mix of ops fixed.
	slots := w.slots()
	for tries := 0; tries < minOps || tries%slots != 0 || time.Since(start).Seconds() < seconds; tries++ {
		i := *next
		*next++
		if tr != nil {
			tr.op.Store(int64(i))
		}
		opStart := time.Now()
		r, err := w.op(i)
		d := time.Since(opStart)
		if r.wall > 0 {
			d = r.wall
		}
		if !c.check(i, r, err) {
			continue
		}
		s.ops = append(s.ops, r)
		s.walls = append(s.walls, d)
		rep.opSpans = append(rep.opSpans, opSpan{
			Op: int64(i), Traced: tr != nil, Start: int64(opStart.Sub(t0)), DurNs: int64(d), Units: r.units,
		})
	}
	s.wall = time.Since(start)
	runtime.ReadMemStats(&s.mem[1])
	s.ctr = map[string]float64{}
	for k, v := range w.counters() {
		s.ctr[k] = v - before[k]
	}
	return s
}

// run executes one benchmark run of w.
func run(w system, cfg runConfig) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	t0 := time.Now()

	var setups, topos metrics.Summary
	for i := 0; i < cfg.setups || (setups.Sum() < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		topo, err := w.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups.Add(time.Since(start).Seconds())
		topos.Add(topo.Seconds())
	}
	defer w.close()

	c := newChecker(rep, w.slots(), cfg.expect)
	next := 0
	for range w.warmup() {
		r, err := w.op(next)
		c.check(next, r, err)
		next++
	}
	// The footprint is taken at a fixed amount of work, before the
	// timed ops: a live node's seen-set grows with every broadcast, so
	// a heap read after a time budget would grow with host speed.
	if err := w.settle(); err != nil {
		return rep, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / 1e6

	budget := cfg.seconds
	var prof bytes.Buffer
	if cfg.trace {
		// The profile covers the untraced half, so module shares are
		// the uninstrumented program's.
		budget /= 2
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, fmt.Errorf("cpu profile: %w", err)
		}
	}
	plain := measure(w, c, rep, &next, budget, nil, t0)
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	if len(plain.ops) == 0 {
		return rep, fmt.Errorf("no op succeeded: %v", rep.failures)
	}
	if err := w.verify(c.ref); err != nil {
		c.fail(1, "verify: %v", err)
	}
	if !cfg.trace {
		endToEndMetrics(rep.metrics, &plain, w.slots(), setups.Median(), liveHeap)
	} else {
		if err := traced(w, cfg, rep, c, &next, &plain, topos.Median(), t0); err != nil {
			return rep, err
		}
		shares, err := moduleShares(prof.Bytes())
		if err != nil {
			return rep, err
		}
		for m, v := range shares {
			rep.metrics["pprof."+m+"_frac"] = v
		}
	}
	rep.fingerprints = c.ref
	return rep, nil
}

// traced rebuilds w instrumented, runs the traced segment and fills the
// per-layer metrics.
func traced(w system, cfg runConfig, rep *report, c *checker, next *int, plain *segment, topo float64, t0 time.Time) error {
	w.close()
	n, ownerOf := w.owners()
	tr := newTracer(n, ownerOf)
	if _, err := w.setup(tr); err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	r, err := w.op(*next)
	c.check(*next, r, err)
	*next++
	if err := w.settle(); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}

	before := tr.totals()
	seg := measure(w, c, rep, next, cfg.seconds/2, tr, t0)
	if len(seg.ops) == 0 {
		return fmt.Errorf("no traced op succeeded: %v", rep.failures)
	}
	if err := w.verify(c.ref); err != nil {
		c.fail(1, "traced verify: %v", err)
	}
	layerMetrics(rep, w, plain, &seg, before, tr.totals(), topo)
	rep.spans = tr.samples()
	return nil
}

func endToEndMetrics(m map[string]float64, s *segment, slots int, setup, liveHeap float64) {
	units := float64(s.units())
	var events, msgs, delivered, expected, nodes float64
	var wall time.Duration
	for i, r := range s.ops {
		events += float64(r.events)
		msgs += float64(r.msgs)
		delivered += float64(r.delivered)
		expected += float64(r.expected)
		nodes = float64(r.nodes)
		wall += s.walls[i]
	}
	// An op that launches many units (a soak repetition) already
	// amortises one instance's transactions; its time samples are taken
	// over whole cycles of slots, so each weighs every instance once.
	group := 1
	if units > float64(len(s.ops)) {
		group = slots
	}
	var perOp metrics.Summary
	for i := 0; i+group <= len(s.ops); i += group {
		var d time.Duration
		var u int
		for j := i; j < i+group; j++ {
			d += s.walls[j]
			u += s.ops[j].units
		}
		perOp.Add(d.Seconds() * 1e3 / float64(u))
	}
	events += s.ctr["_events"]
	msgs += s.ctr["_msgs"]
	m["ops_per_s"] = units / wall.Seconds()
	m["events_per_s"] = events / wall.Seconds() / 1e6
	m["op_ms_p50"] = perOp.Percentile(50)
	m["op_ms_p99"] = perOp.Percentile(99)
	m["setup_s"] = setup
	alloc := float64(s.mem[1].TotalAlloc-s.mem[0].TotalAlloc) - s.ctr["_rebuild.alloc_bytes"]
	m["alloc_mb_per_op"] = alloc / 1e6 / units
	m["live_heap_mb"] = liveHeap
	m["coverage"] = delivered / expected
	m["msgs_per_node_per_op"] = msgs / nodes / units
}

func layerMetrics(rep *report, w system, plain, seg *segment, before, after totals, topo float64) {
	m := rep.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	units := float64(seg.units())
	perOp := func(v float64) float64 { return v / units }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	span := func(s spanAcc, prefix string) {
		m[prefix+"_calls"] = perOp(float64(s.calls))
		m[prefix+"_self_s"] = perOp(float64(s.selfNs) / 1e9)
		m[prefix+"_ns"] = ratio(float64(s.selfNs), float64(s.calls))
	}
	d := after.sub(before)

	counts := map[string]float64{}
	var runWall time.Duration
	var events, msgs float64
	var lat metrics.LatencySketch
	var spyHits float64
	var spyTrials int
	var waits metrics.Summary
	for _, r := range seg.ops {
		for k, v := range r.counts {
			counts[k] += v
		}
		runWall += r.runWall
		events += float64(r.events)
		msgs += float64(r.msgs)
		if r.lat != nil {
			lat.Merge(r.lat)
		}
		spyHits += r.spyHits
		spyTrials += r.spyTrials
		if r.wait > 0 {
			waits.Add(r.wait.Seconds() * 1e6)
		}
		m["workload.peak_queue"] = math.Max(m["workload.peak_queue"], float64(r.peak))
	}
	for k, v := range seg.ctr {
		counts[k] += v
	}
	for k, v := range counts {
		if k[0] != '_' {
			m[k] = perOp(v)
		}
	}

	handlerNs := float64(d.handlerSpanNs())
	selfNs := map[string]int64{"send": d.send.selfNs, "set_timer": d.setTimer.selfNs, "tap": d.tap.selfNs}
	for b := range nBuckets {
		h := d.handle(b)
		selfNs["handle."+bucketNames[b]] = h.selfNs
	}
	rep.selfNs = selfNs
	owners := len(d.busy)
	rep.capacityNs = int64(owners) * int64(seg.wall)

	if k := w.shards(); k > 0 {
		capNs := float64(k) * float64(runWall)
		engine := capNs - handlerNs - float64(d.tap.spanNs)
		selfNs["engine"] = int64(engine)
		m["sim.run_s"] = perOp(runWall.Seconds())
		m["sim.events"] = perOp(events)
		m["sim.engine_self_s"] = perOp(engine / 1e9)
		m["sim.engine_ns_per_event"] = ratio(engine, events)
		m["sim.send_calls"] = perOp(float64(d.send.calls))
		m["sim.send_self_s"] = perOp(float64(d.send.selfNs) / 1e9)
		m["sim.send_ns"] = ratio(float64(d.send.selfNs), float64(d.send.calls))
		m["sim.timer_calls"] = perOp(float64(d.setTimer.calls))
		m["sim.shard_stall_frac"] = ratio(counts["sim.shard_stalls"], counts["sim.shard_windows"])
		m["sim.shard_busy_frac"] = ratio(handlerNs, capNs)
		var most int64
		for _, b := range d.busy {
			most = max(most, b)
		}
		m["sim.shard_imbalance"] = ratio(float64(most), handlerNs/float64(owners))
		m["sim.latency_p50_s"] = lat.Quantile(0.50).Seconds()
		m["sim.latency_p99_s"] = lat.Quantile(0.99).Seconds()
		m["netem.drop_frac"] = ratio(counts["netem.dropped"], msgs)
	} else {
		m["transport.handle_self_s"] = perOp(float64(d.send.selfNs) / 1e9)
	}
	span(d.handle(bucketFlood), "flood.handle")
	span(d.handle(bucketAdaptive), "adaptive.handle")
	span(d.handle(bucketDCNet), "dcnet.handle")
	span(d.handle(bucketRelChan), "relchan.handle")
	m["relchan.retx_frac"] = ratio(counts["relchan.retransmits"], msgs)
	m["core.timer_calls"] = perOp(float64(d.timer[bucketCore].calls))
	m["core.timer_self_s"] = perOp(float64(d.timer[bucketCore].selfNs) / 1e9)
	m["core.broadcast_calls"] = perOp(float64(d.bcast[bucketCore].calls))
	m["workload.launch_frac"] = ratio(counts["workload.launched"], counts["_workload.unique"])
	m["adversary.tap_calls"] = perOp(float64(d.tap.calls))
	m["adversary.tap_self_s"] = perOp(float64(d.tap.selfNs) / 1e9)
	if spyTrials > 0 {
		m["adversary.spy_precision"] = spyHits / float64(spyTrials)
	}
	m["topology.build_s"] = topo
	if waits.N() > 0 {
		m["transport.mailbox_wait_us_p50"] = waits.Median()
	}
	m["wire.frame_overhead_frac"] = ratio(counts["_wire.frame_bytes"]-counts["_wire.msg_bytes"], counts["_wire.frame_bytes"])
	m["wire.tx_bytes_per_op"] = perOp(counts["_wire.frame_bytes"])
	m["transport.frames_per_op"] = perOp(counts["_transport.frames"])

	plainUnits := float64(plain.units())
	gcs := float64(plain.mem[1].NumGC-plain.mem[0].NumGC) - plain.ctr["_rebuild.gc_cycles"]
	pause := float64(plain.mem[1].PauseTotalNs-plain.mem[0].PauseTotalNs) - plain.ctr["_rebuild.gc_pause_ns"]
	m["runtime.gc_cycles"] = gcs / plainUnits
	m["runtime.gc_pause_s"] = pause / 1e9 / plainUnits
	m["trace.overhead_frac"] = plain.opsPerSec()/seg.opsPerSec() - 1
}

// writeTrace stores the traced run's spans, ledger and host record under
// the build directory ($CARGO_TARGET_DIR, default .bench_build).
func writeTrace(name string, seed uint64, host map[string]any, rep *report) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	b, err := json.Marshal(map[string]any{
		"host": host, "metrics": rep.metrics, "ops": rep.opSpans,
		"spans": rep.spans, "span_sample_every": sampleEvery,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// fingerprint hashes the observable outcome of an op: a SHA-256 over
// 64-bit words, batched through a small buffer.
type fingerprint struct {
	h   hash.Hash
	buf []byte
}

func newFingerprint() *fingerprint {
	return &fingerprint{h: sha256.New(), buf: make([]byte, 0, 4096)}
}

func (h *fingerprint) add(vs ...int64) {
	for _, v := range vs {
		if len(h.buf) == cap(h.buf) {
			h.h.Write(h.buf)
			h.buf = h.buf[:0]
		}
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	}
}

// typeCounts folds the per-type message counters in.
func (h *fingerprint) typeCounts(net *sim.Network) {
	for t := proto.MsgType(0); t < proto.RangeEnd; t++ {
		if m := net.MessagesOfType(t); m != 0 {
			h.add(int64(t), m)
		}
	}
	h.add(net.TotalMessages())
}

func (h *fingerprint) sum() string {
	h.h.Write(h.buf)
	return hex.EncodeToString(h.h.Sum(nil)[:8])
}
