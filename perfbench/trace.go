package main

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Handler spans are bucketed by the message-type range of what they
// handle (proto.Range*, one per protocol package) and timer spans by the
// package of the timer payload's type, so the composed stack's single
// handler splits into its flood, adaptive, dcnet, relchan and core work.
var bucketNames = [...]string{
	"transport", "flood", "adaptive", "dcnet", "dandelion",
	"core", "group", "chain", "relchan", "workload", "other",
}

const (
	bucketFlood    = 1
	bucketAdaptive = 2
	bucketDCNet    = 3
	bucketCore     = 5
	bucketRelChan  = 8
	bucketOther    = len(bucketNames) - 1
	nBuckets       = len(bucketNames)
)

func msgBucket(t proto.MsgType) int {
	if b := int(t >> 8); b < bucketOther {
		return b
	}
	return bucketOther
}

func pkgBucket(pkgPath string) int {
	name := pkgPath[strings.LastIndexByte(pkgPath, '/')+1:]
	for i, n := range bucketNames[:bucketOther] {
		if n == name && strings.HasPrefix(pkgPath, "repro/internal/") {
			return i
		}
	}
	return bucketOther
}

// sampleEvery keeps every sampleEvery-th span of an owner in full; the
// rest only feed the accumulators.
const sampleEvery = 4096

// spanAcc accumulates one kind of span: calls, total span time and self
// time (span minus the child spans it encloses).
type spanAcc struct {
	calls, spanNs, selfNs int64
}

// spanRec is one span kept in full.
type spanRec struct {
	Layer   string `json:"layer"`
	Node    int32  `json:"node"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// ownerAcc holds the accumulators of one execution context: a simulator
// shard (whose nodes all run on one goroutine at a time) or one live
// node. Only that context writes it, so no field needs synchronization;
// the measuring loop reads it after the context is idle.
type ownerAcc struct {
	msg, timer, bcast [nBuckets]spanAcc
	send, setTimer    spanAcc
	// child collects the span time of children inside the open span.
	child   int64
	seq     uint64
	samples []spanRec
	kinds   map[reflect.Type]int
	_       [64]byte // keep owners on separate cache lines
}

// tracer times calls into the layers from outside: handler, Context and
// Tap wrappers installed by the workloads when a run is traced.
type tracer struct {
	start   time.Time
	owners  []*ownerAcc
	ownerOf func(proto.NodeID) int
	op      atomic.Int64
	tap     spanAcc
	// skipped are intervals of upkeep (a live cluster's rebuild) that
	// totals leaves out.
	skipped []totals
}

func newTracer(owners int, ownerOf func(proto.NodeID) int) *tracer {
	t := &tracer{start: time.Now(), ownerOf: ownerOf}
	for range owners {
		t.owners = append(t.owners, &ownerAcc{kinds: make(map[reflect.Type]int)})
	}
	return t
}

func (a *ownerAcc) open() (time.Time, int64) {
	saved := a.child
	a.child = 0
	return time.Now(), saved
}

func (a *ownerAcc) close(tr *tracer, s *spanAcc, layer string, node proto.NodeID, t0 time.Time, saved int64) {
	d := int64(time.Since(t0))
	s.calls++
	s.spanNs += d
	s.selfNs += d - a.child
	a.child = saved + d
	a.sample(tr, layer, node, t0, d)
}

func (a *ownerAcc) leaf(tr *tracer, s *spanAcc, layer string, node proto.NodeID, t0 time.Time) {
	d := int64(time.Since(t0))
	s.calls++
	s.spanNs += d
	s.selfNs += d
	a.child += d
	a.sample(tr, layer, node, t0, d)
}

func (a *ownerAcc) sample(tr *tracer, layer string, node proto.NodeID, t0 time.Time, d int64) {
	a.seq++
	if a.seq%sampleEvery == 0 {
		a.samples = append(a.samples, spanRec{
			Layer: layer, Node: int32(node), Op: tr.op.Load(),
			StartNs: int64(t0.Sub(tr.start)), DurNs: d,
		})
	}
}

func (a *ownerAcc) timerBucket(payload any) int {
	t := reflect.TypeOf(payload)
	b, ok := a.kinds[t]
	if !ok {
		et := t
		for et != nil && et.Kind() == reflect.Pointer {
			et = et.Elem()
		}
		b = bucketOther
		if et != nil {
			b = pkgBucket(et.PkgPath())
		}
		a.kinds[t] = b
	}
	return b
}

// busyNs is the owner's total top-level handler span time.
func (a *ownerAcc) busyNs() int64 {
	var s int64
	for b := range nBuckets {
		s += a.msg[b].spanNs + a.timer[b].spanNs + a.bcast[b].spanNs
	}
	return s
}

// wrap returns h instrumented for node id.
func (t *tracer) wrap(id proto.NodeID, h proto.Handler) proto.Handler {
	acc := t.owners[t.ownerOf(id)]
	w := &tracedHandler{inner: h, acc: acc, tr: t, self: id}
	w.ctx.h = w
	et := reflect.TypeOf(h)
	for et.Kind() == reflect.Pointer {
		et = et.Elem()
	}
	w.bucket = pkgBucket(et.PkgPath())
	return w
}

// tracedHandler wraps one node's proto.Handler with handler spans and
// hands the inner handler a tracedCtx for Send/SetTimer spans.
type tracedHandler struct {
	inner  proto.Handler
	acc    *ownerAcc
	tr     *tracer
	self   proto.NodeID
	bucket int // the inner handler's package, for Broadcast spans
	ctx    tracedCtx
}

var _ proto.Broadcaster = (*tracedHandler)(nil)

func (h *tracedHandler) wrapCtx(ctx proto.Context) proto.Context {
	h.ctx.Context = ctx
	return &h.ctx
}

func (h *tracedHandler) Init(ctx proto.Context) { h.inner.Init(h.wrapCtx(ctx)) }

func (h *tracedHandler) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	b := msgBucket(msg.Type())
	t0, saved := h.acc.open()
	h.inner.HandleMessage(h.wrapCtx(ctx), from, msg)
	h.acc.close(h.tr, &h.acc.msg[b], bucketNames[b], h.self, t0, saved)
}

func (h *tracedHandler) HandleTimer(ctx proto.Context, payload any) {
	b := h.acc.timerBucket(payload)
	t0, saved := h.acc.open()
	h.inner.HandleTimer(h.wrapCtx(ctx), payload)
	h.acc.close(h.tr, &h.acc.timer[b], bucketNames[b]+".timer", h.self, t0, saved)
}

func (h *tracedHandler) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	t0, saved := h.acc.open()
	id, err := h.inner.(proto.Broadcaster).Broadcast(h.wrapCtx(ctx), payload)
	h.acc.close(h.tr, &h.acc.bcast[h.bucket], bucketNames[h.bucket]+".broadcast", h.self, t0, saved)
	return id, err
}

// tracedCtx is the Context a traced handler sees: Send and SetTimer are
// leaf spans charged as children of the enclosing handler span.
type tracedCtx struct {
	proto.Context
	h *tracedHandler
}

func (c *tracedCtx) Send(to proto.NodeID, msg proto.Message) {
	t0 := time.Now()
	c.Context.Send(to, msg)
	c.h.acc.leaf(c.h.tr, &c.h.acc.send, "send", c.h.self, t0)
}

func (c *tracedCtx) SetTimer(delay time.Duration, payload any) proto.TimerID {
	t0 := time.Now()
	id := c.Context.SetTimer(delay, payload)
	c.h.acc.leaf(c.h.tr, &c.h.acc.setTimer, "set_timer", c.h.self, t0)
	return id
}

// tracedTap times a sim.Tap's OnReceive, the observer's per-arrival work.
// Taps fire on one goroutine at a time (inline on a single loop, from the
// barrier replay when sharded), so one accumulator serves them.
type tracedTap struct {
	inner sim.Tap
	tr    *tracer
}

func (t *tracedTap) OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	t.inner.OnSend(at, from, to, msg)
}

func (t *tracedTap) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	t0 := time.Now()
	t.inner.OnReceive(at, from, to, msg)
	d := int64(time.Since(t0))
	t.tr.tap.calls++
	t.tr.tap.spanNs += d
	t.tr.tap.selfNs += d
}

func (t *tracedTap) OnDeliverLocal(at time.Duration, node proto.NodeID, id proto.MsgID, payload []byte) {
	t.inner.OnDeliverLocal(at, node, id, payload)
}

// totals sums the owners' accumulators.
type totals struct {
	msg, timer, bcast [nBuckets]spanAcc
	send, setTimer    spanAcc
	busy              []int64 // per owner
	tap               spanAcc
}

func (t *tracer) totals() totals {
	var s totals
	for _, a := range t.owners {
		for b := range nBuckets {
			s.msg[b].add(a.msg[b])
			s.timer[b].add(a.timer[b])
			s.bcast[b].add(a.bcast[b])
		}
		s.send.add(a.send)
		s.setTimer.add(a.setTimer)
		s.busy = append(s.busy, a.busyNs())
	}
	s.tap = t.tap
	for _, k := range t.skipped {
		s = s.sub(k)
	}
	return s
}

// skip leaves the spans recorded between two totals out of every later
// totals.
func (t *tracer) skip(from, to totals) { t.skipped = append(t.skipped, to.sub(from)) }

// sub returns s − o.
func (s totals) sub(o totals) totals {
	d := totals{send: s.send.sub(o.send), setTimer: s.setTimer.sub(o.setTimer), tap: s.tap.sub(o.tap)}
	for b := range nBuckets {
		d.msg[b] = s.msg[b].sub(o.msg[b])
		d.timer[b] = s.timer[b].sub(o.timer[b])
		d.bcast[b] = s.bcast[b].sub(o.bcast[b])
	}
	d.busy = slices.Clone(s.busy)
	for i := range min(len(d.busy), len(o.busy)) {
		d.busy[i] -= o.busy[i]
	}
	return d
}

func (s spanAcc) sub(o spanAcc) spanAcc {
	return spanAcc{s.calls - o.calls, s.spanNs - o.spanNs, s.selfNs - o.selfNs}
}

func (s *spanAcc) add(o spanAcc) {
	s.calls += o.calls
	s.spanNs += o.spanNs
	s.selfNs += o.selfNs
}

// handle returns bucket b's message, timer and broadcast spans combined.
func (s *totals) handle(b int) spanAcc {
	var h spanAcc
	h.add(s.msg[b])
	h.add(s.timer[b])
	h.add(s.bcast[b])
	return h
}

// handlerSpanNs is the total top-level handler span time.
func (s *totals) handlerSpanNs() int64 {
	var n int64
	for _, b := range s.busy {
		n += b
	}
	return n
}

// samples gathers the spans kept in full.
func (t *tracer) samples() []spanRec {
	var out []spanRec
	for _, a := range t.owners {
		out = append(out, a.samples...)
	}
	return out
}
