// Package sim implements the deterministic discrete-event runtime the
// experiments run on: an event engine (virtual clock + index-based 4-ary
// min-heap over a pooled event arena) and a Network that hosts one
// proto.Handler per topology node, delivers messages under a netem
// network-condition profile, counts messages and bytes per type, and
// supports failure injection (drops, crashed nodes) and observation taps
// for the adversary framework.
//
// Determinism contract: a Network built from the same topology, seed and
// options replays the exact same event sequence. All randomness flows from
// the seed; events at equal virtual times fire in a deterministic order
// that is additionally *shard-invariant* (see below).
//
// Event ordering. Every event is keyed by (at, src, seq): the fire time,
// the scheduling context (the node whose handler scheduled it, or ctlSrc
// for engine-level control events), and a per-context counter. Within one
// context the counter rises with schedule time, so each context's events
// fire in the order it scheduled them (the FIFO the protocols rely on);
// same-instant ties between contexts break by node ID, with control
// events (crash/restore injection) first. The key is a pure function of
// who scheduled what — never of execution interleaving or of how events
// are distributed over heaps — which is what lets the sharded runtime
// (shard.go) split the node set across K independent heaps and still pop
// every node's events in exactly the single-heap order.
//
// The engine is allocation-free in steady state: event records live in a
// slot arena recycled through a free list, the heap orders int32 slot
// indices (ordering keys are stored inline in the heap entries for cache
// locality), and the hot paths — message delivery and node timers — are
// typed event kinds rather than heap-allocated closures. Timer handles are
// generation-counted so cancelling after the slot has been recycled is a
// safe no-op.
package sim

import (
	"math"
	"time"

	"repro/internal/proto"
)

// eventKind discriminates the payload of an arena slot.
type eventKind uint8

const (
	// evFree marks a recycled slot sitting on the free list.
	evFree eventKind = iota
	// evFunc is a generic callback (Engine.Schedule).
	evFunc
	// evDeliver hands a message to a node's handler (Network.send).
	evDeliver
	// evTimer fires a node timer (Context.SetTimer).
	evTimer
)

// ctlSrc is the scheduling-context ID of engine-level control events
// (Engine.Schedule: churn injection, driver callbacks). It sorts before
// every node ID, so a control event fires ahead of same-instant node
// events — crash/restore at time T precedes deliveries arriving at T,
// exactly as the Start-time schedule order used to guarantee.
const ctlSrc proto.NodeID = -1

// event is one arena slot. Ordering keys live in the heap entries, not
// here; the slot only carries the payload and the cancellation/generation
// state.
type event struct {
	gen      uint32 // bumped on release; stale Timer handles miss
	kind     eventKind
	canceled bool

	fn func() // evFunc

	node    *simNode      // evDeliver, evTimer
	src     proto.NodeID  // evDeliver
	msg     proto.Message // evDeliver
	timerID proto.TimerID // evTimer
	payload any           // evTimer
}

// evKey is the deterministic, shard-invariant ordering tail of one event:
// scheduling context and per-context sequence number.
type evKey struct {
	src proto.NodeID
	seq uint32
}

// heapEntry is one node of the 4-ary min-heap: the full ordering key plus
// the arena slot it refers to. Keeping the key inline means sift
// operations never chase the arena, and the (src, seq) tail is packed
// into one word so a same-instant tie — the common case under constant
// link latency, where a whole broadcast wave lands on the same
// nanosecond — resolves in a single compare.
type heapEntry struct {
	at  time.Duration
	tag uint64 // (src+1) in the high word, seq in the low
	idx int32
}

// keyTag packs an ordering key's provenance tail. NodeIDs are int32-
// ranged (ctlSrc = -1 maps to 0, sorting first), so the shifted word is
// exact and uint64 order equals (src, seq) lexicographic order.
func keyTag(src proto.NodeID, seq uint32) uint64 {
	return uint64(uint32(src+1))<<32 | uint64(seq)
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tag < b.tag
}

// Arena geometry: events live in fixed-size blocks so growing the arena
// never copies or re-zeroes existing slots (a flat slice re-copies ~4× its
// final size under Go's 1.25× growth policy, which dominates profiles of
// schedule-heavy runs). Blocks are kept small (~20 KiB) so that the many
// short-lived networks the experiments build stay cheap.
const (
	arenaBlockBits = 8
	arenaBlockSize = 1 << arenaBlockBits
	arenaBlockMask = arenaBlockSize - 1
)

type arenaBlock [arenaBlockSize]event

// Engine is a single-threaded discrete-event executor. Under the sharded
// runtime each shard owns one Engine; engines never touch each other's
// state — cross-shard events are handed over between windows while every
// engine is idle.
type Engine struct {
	now    time.Duration
	ctlSeq uint32 // per-engine counter for control events (src = ctlSrc)
	steps  uint64

	// curTag/curSub identify the event currently being dispatched: the
	// packed ordering tag of the executing event and a counter over the
	// observation callbacks it has emitted so far. Together with e.now
	// they form the key the sharded observation log (obs.go) orders
	// entries by, so the merged tap stream replays in exactly the
	// single-loop order. Maintained unconditionally — two word stores
	// per event — because the network cannot know at dispatch time
	// whether a tap will be registered later in the run.
	curTag uint64
	curSub uint32

	blocks []*arenaBlock
	next   int32   // first never-used slot index
	free   []int32 // recycled arena slots
	heap   []heapEntry
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset rewinds the engine to virtual time zero for a fresh run while
// keeping the arena blocks and heap capacity, so a reset engine behaves
// exactly like a new one without re-allocating. All pending events are
// dropped; every outstanding Timer handle must be discarded by the
// caller (generations restart, so a stale handle could otherwise cancel
// an unrelated new event).
func (e *Engine) Reset() {
	e.now, e.ctlSeq, e.steps = 0, 0, 0
	e.curTag, e.curSub = 0, 0
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	// Zero the used prefix of the arena: drops message/payload references
	// and restarts generations, making reset state indistinguishable from
	// a fresh engine.
	for b := 0; b <= int(e.next-1)>>arenaBlockBits && b < len(e.blocks); b++ {
		*e.blocks[b] = arenaBlock{}
	}
	e.next = 0
}

// Reserve pre-sizes the heap and free list for an expected concurrent
// event population, so schedule-heavy runs never pay re-grow copies on
// the hot path. The sharded runtime calls it with the expected per-shard
// population (≈ nodes/shards × degree); it is a capacity hint only and
// never shrinks.
func (e *Engine) Reserve(events int) {
	if events <= cap(e.heap) {
		return
	}
	grown := make([]heapEntry, len(e.heap), events)
	copy(grown, e.heap)
	e.heap = grown
	if cap(e.free) < events {
		gf := make([]int32, len(e.free), events)
		copy(gf, e.free)
		e.free = gf
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled (possibly canceled) events.
func (e *Engine) Pending() int { return len(e.heap) }

// nextAt returns the fire time of the earliest pending event. ok is
// false when the heap is empty. Canceled events still count — they are
// only discovered (and released) when popped, which at worst makes a
// lookahead window conservative, never wrong.
func (e *Engine) nextAt() (time.Duration, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// slot returns the arena cell for an index.
func (e *Engine) slot(idx int32) *event {
	return &e.blocks[idx>>arenaBlockBits][idx&arenaBlockMask]
}

// alloc takes a slot from the free list, growing the arena by one block
// when empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if int(e.next)>>arenaBlockBits == len(e.blocks) {
		e.blocks = append(e.blocks, new(arenaBlock))
	}
	idx := e.next
	e.next++
	return idx
}

// release recycles a slot: references are dropped so the arena never
// pins handler objects, and the generation is bumped so outstanding
// Timer handles go stale.
func (e *Engine) release(idx int32) {
	ev := e.slot(idx)
	ev.gen++
	ev.kind = evFree
	ev.canceled = false
	ev.fn = nil
	ev.node = nil
	ev.msg = nil
	ev.payload = nil
	if len(e.free) == cap(e.free) {
		grown := make([]int32, len(e.free), max(arenaBlockSize, 2*cap(e.free)))
		copy(grown, e.free)
		e.free = grown
	}
	e.free = append(e.free, idx)
}

// scheduleAt allocates a slot for an event firing at the absolute time
// `at` under the given ordering key and pushes it on the heap. The caller
// fills the payload fields. It is the one entry point every schedule path
// — local, control, and cross-shard handover — funnels through.
func (e *Engine) scheduleAt(at time.Duration, key evKey) int32 {
	idx := e.alloc()
	e.heapPush(heapEntry{at: at, tag: keyTag(key.src, key.seq), idx: idx})
	return idx
}

// schedule allocates a slot for a control event firing after delay
// (clamped to ≥ 0), keyed to this engine's control stream.
func (e *Engine) schedule(delay time.Duration) int32 {
	if delay < 0 {
		delay = 0
	}
	e.ctlSeq++
	return e.scheduleAt(e.now+delay, evKey{src: ctlSrc, seq: e.ctlSeq})
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. The returned handle can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	idx := e.schedule(delay)
	ev := e.slot(idx)
	ev.kind = evFunc
	ev.fn = fn
	return Timer{e: e, idx: idx, gen: ev.gen}
}

// scheduleDeliver enqueues a typed message-delivery event at absolute
// arrival time `at` — the Network hot path; no closure and no per-event
// heap allocation. The key carries the sender's provenance, so the event
// sorts identically whether it was pushed by the sender's own shard or
// handed over at a window barrier.
func (e *Engine) scheduleDeliver(at time.Duration, key evKey, dst *simNode, src proto.NodeID, msg proto.Message) {
	idx := e.scheduleAt(at, key)
	ev := e.slot(idx)
	ev.kind = evDeliver
	ev.node = dst
	ev.src = src
	ev.msg = msg
}

// scheduleTimer enqueues a typed node-timer event (Context.SetTimer),
// keyed to the node's own schedule stream.
func (e *Engine) scheduleTimer(delay time.Duration, node *simNode, id proto.TimerID, payload any) Timer {
	if delay < 0 {
		delay = 0
	}
	if delay == 0 {
		// A same-instant child may carry a smaller ordering tag than the
		// event creating it; mark the creator in the observation log so
		// the barrier merge replays taps in true execution order
		// (see the availability invariant in obs.go).
		node.net.tapMark(node)
	}
	node.schedSeq++
	idx := e.scheduleAt(e.now+delay, evKey{src: node.id, seq: node.schedSeq})
	ev := e.slot(idx)
	ev.kind = evTimer
	ev.node = node
	ev.timerID = id
	ev.payload = payload
	return Timer{e: e, idx: idx, gen: ev.gen}
}

// Timer is a cancellable handle on a scheduled event. The zero Timer is
// inert. Handles are generation-counted: cancelling after the event has
// fired — even if the arena slot has since been reused by a different
// event — is a safe no-op.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Safe to call multiple times,
// after the event has fired, and on the zero Timer.
func (t Timer) Cancel() {
	if t.e == nil {
		return
	}
	ev := t.e.slot(t.idx)
	if ev.gen == t.gen && ev.kind != evFree {
		ev.canceled = true
	}
}

// Run executes events until the queue is empty or maxEvents have fired.
// maxEvents ≤ 0 means no limit. It returns the number of events executed.
func (e *Engine) Run(maxEvents uint64) uint64 {
	return e.runUntil(time.Duration(math.MaxInt64), maxEvents)
}

// RunUntil executes events with timestamps ≤ deadline. Events scheduled at
// exactly the deadline do fire; the virtual clock then advances to the
// deadline even if no events occupied the window, so repeated
// RunUntil(Now()+step) calls always make progress.
func (e *Engine) RunUntil(deadline time.Duration) uint64 {
	n := e.runUntil(deadline, 0)
	if deadline > e.now {
		e.now = deadline
	}
	return n
}

// runUntil executes events with at ≤ deadline (inclusive bound).
func (e *Engine) runUntil(deadline time.Duration, maxEvents uint64) uint64 {
	var executed uint64
	for len(e.heap) > 0 {
		root := e.heap[0]
		if root.at > deadline {
			break
		}
		if !e.step(root) {
			continue
		}
		executed++
		if maxEvents > 0 && executed >= maxEvents {
			break
		}
	}
	return executed
}

// runBefore executes events with at < horizon (exclusive bound) — the
// sharded window form: the horizon is minNext+lookahead, and events at
// exactly the horizon must wait for the barrier because a cross-shard
// message may still arrive at that instant and sort ahead of them.
func (e *Engine) runBefore(horizon time.Duration) uint64 {
	var executed uint64
	for len(e.heap) > 0 {
		root := e.heap[0]
		if root.at >= horizon {
			break
		}
		if !e.step(root) {
			continue
		}
		executed++
	}
	return executed
}

// step pops and executes the root event; it reports whether a live event
// actually ran (false for canceled slots).
func (e *Engine) step(root heapEntry) bool {
	e.heapPopRoot()
	ev := e.slot(root.idx)
	if ev.canceled {
		e.release(root.idx)
		return false
	}
	e.now = root.at
	e.curTag, e.curSub = root.tag, 0
	// Copy the payload out and recycle the slot before dispatching:
	// the callback may schedule new events that reuse it.
	kind := ev.kind
	switch kind {
	case evFunc:
		fn := ev.fn
		e.release(root.idx)
		fn()
	case evDeliver:
		node, src, msg := ev.node, ev.src, ev.msg
		e.release(root.idx)
		if !node.crashed {
			// Delivery-side taps fire here, in the engine's dispatch,
			// so both the single-loop and sharded send paths (whose
			// cross-shard outboxes funnel through scheduleDeliver into
			// this case) report arrivals identically. Under a sharded
			// run the observation is parked in the shard's log and
			// replayed in merged global order at the next barrier
			// (obs.go).
			if net := node.net; len(net.taps) > 0 {
				net.tapRecv(node, root.at, src, msg)
			}
			node.handler.HandleMessage(node, src, msg)
		}
	case evTimer:
		node, id, payload := ev.node, ev.timerID, ev.payload
		e.release(root.idx)
		node.onTimerFire(id, payload)
	default:
		e.release(root.idx)
		return false
	}
	e.steps++
	return true
}

// 4-ary min-heap over heapEntry. Flatter than a binary heap: half the
// levels, so roughly half the cache misses per pop at simulation scale.

func (e *Engine) heapPush(ent heapEntry) {
	if len(e.heap) == cap(e.heap) {
		// Double explicitly: Go's 1.25× growth policy for large slices
		// would copy ~4× the final size over a long run. Reserve() set
		// the expected population up front, so this is the overflow
		// path, not the steady state.
		grown := make([]heapEntry, len(e.heap), max(arenaBlockSize, 2*cap(e.heap)))
		copy(grown, e.heap)
		e.heap = grown
	}
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

func (e *Engine) heapPopRoot() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return
	}
	// Percolate the hole at the root down, writing `last` once at the end
	// instead of swapping at every level.
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for c++; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
}
