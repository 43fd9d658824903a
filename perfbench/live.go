package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// liveParams sizes the live cluster: real transport nodes over
// in-process pipes, driven by one closed-loop client.
type liveParams struct {
	n, origins int
}

var liveConfig = liveParams{n: 32, origins: 4}

const (
	liveDegree  = 4
	livePayload = 250             // bytes
	liveTimeout = 5 * time.Second // per-op limit; a slower op fails
)

// liveReboot rebuilds the cluster (untimed) every liveReboot ops. A
// node's flood seen-set grows with every broadcast, and with it the
// heap and the GC period that sets the latency tail; a fixed reboot
// period gives every run the same heap trajectory instead of one that
// depends on how many ops the host managed.
const liveReboot = 1024

// nodeHeapFloor is the Go runtime's minimum heap target (4 MiB). The
// cluster's nodes share one heap; as separate processes each would
// start collecting at its own floor, so the shared heap gets one floor
// per node (GOGC off under a memory limit of n floors) rather than one
// 4 MiB target serving every node, which would collect many times more
// often than any deployment and set the latency tail by itself.
const nodeHeapFloor = 4 << 20

type liveFlood struct {
	cfg  liveParams
	seed uint64

	tr       *tracer
	g        *topology.Graph
	nodes    []*transport.Node
	handlers []proto.Handler
	origins  []proto.NodeID
	payload  []byte
	// slotFP is each slot's fingerprint, fixed at set-up (see op).
	slotFP []string

	// sent counts broadcasts injected into the current cluster.
	sent int
	// retired accumulates the counters of closed clusters, so counters
	// stay cumulative across rebuilds.
	retired map[string]float64
	// gcPercent and memLimit are the runtime settings to restore on close.
	gcPercent int
	memLimit  int64

	// timer, errc and done are reused by every broadcast.
	timer *time.Timer
	errc  chan error

	mu      sync.Mutex
	current proto.MsgID
	got     []bool
	count   int
	done    chan struct{} // signalled once per broadcast, by its last delivery
}

func newLiveFlood(cfg liveParams, seed uint64) *liveFlood { return &liveFlood{cfg: cfg, seed: seed} }

// onDeliver counts first deliveries of the op in flight; it runs on the
// nodes' event loops.
func (l *liveFlood) onDeliver(node proto.NodeID, id proto.MsgID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id != l.current || l.got[node] {
		return
	}
	l.got[node] = true
	l.count++
	if l.count == len(l.got) {
		l.done <- struct{}{}
	}
}

// setup boots the cluster and dials it: one warm-up broadcast from every
// node opens every overlay link, so timed ops never pay a handshake.
func (l *liveFlood) setup(tr *tracer) (time.Duration, error) {
	l.tr = tr
	n := l.cfg.n
	t := time.Now()
	g, err := topology.RandomRegular(n, liveDegree, rand.New(rand.NewPCG(l.seed, 0x746f706f)))
	if err != nil {
		return 0, err
	}
	topo := time.Since(t)
	l.g = g
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	mem := transport.NewMemNet()
	addrs := make(map[proto.NodeID]string, n)
	for i := range n {
		addrs[proto.NodeID(i)] = fmt.Sprintf("mem:node-%d", i)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	l.got = make([]bool, n)
	l.done = make(chan struct{}, 1)
	l.errc = make(chan error, 1)
	if l.timer == nil {
		l.timer = time.NewTimer(liveTimeout)
		l.timer.Stop()
	}
	l.sent = 0
	l.nodes = make([]*transport.Node, n)
	l.gcPercent = debug.SetGCPercent(-1)
	l.memLimit = debug.SetMemoryLimit(int64(n) * nodeHeapFloor)
	l.handlers = make([]proto.Handler, n)
	for i := range n {
		id := proto.NodeID(i)
		var h proto.Handler = flood.New()
		if tr != nil {
			h = tr.wrap(id, h)
		}
		l.handlers[i] = h
		s1, s2 := sim.NodeSeed(l.seed, id)
		node, err := transport.Listen(transport.Config{
			Self: id, Listen: addrs[id], AddrBook: addrs, Neighbors: g.Neighbors(id),
			Codec: codec, Handler: h, Seed: s1, SeedStream: s2, Net: mem, Logger: quiet,
			OnDeliver: func(mid proto.MsgID, _ []byte) { l.onDeliver(id, mid) },
		})
		if err != nil {
			l.close()
			return 0, fmt.Errorf("booting node %d: %w", i, err)
		}
		l.nodes[i] = node
	}
	rng := rand.New(rand.NewPCG(l.seed, 0x6f726967))
	l.origins = l.origins[:0]
	for range l.cfg.origins {
		l.origins = append(l.origins, proto.NodeID(rng.IntN(n)))
	}
	l.payload = make([]byte, livePayload)
	for i := range l.payload {
		l.payload[i] = byte(rng.Uint32())
	}
	// An op's outcome that a run can observe is deterministic only in
	// what the seed fixes: every node delivers, and the flood sends
	// 2E − (N−1) frames. The fingerprint therefore hashes the seeded
	// origin, its first hops and that frame count; it ties a seed-1 run
	// to the pinned overlay, while the op itself is checked by full
	// delivery within the timeout and the exact frame count at settle.
	l.slotFP = l.slotFP[:0]
	for _, o := range l.origins {
		h := newFingerprint()
		h.add(int64(n), int64(l.framesPerOp()), int64(o))
		for _, nb := range g.Neighbors(o) {
			h.add(int64(nb))
		}
		l.slotFP = append(l.slotFP, h.sum())
	}
	for i := range n {
		if _, _, err := l.broadcast(proto.NodeID(i), -1-i); err != nil {
			l.close()
			return 0, fmt.Errorf("warm-up broadcast: %w", err)
		}
	}
	return topo, nil
}

func (l *liveFlood) slots() int { return l.cfg.origins }

// broadcast injects one payload at origin and waits for the last node
// to deliver it; it returns the mailbox wait and the Inject → last
// delivery time.
func (l *liveFlood) broadcast(origin proto.NodeID, seq int) (wait, took time.Duration, err error) {
	binary.LittleEndian.PutUint64(l.payload, uint64(seq))
	id := proto.NewMsgID(l.payload)
	l.mu.Lock()
	l.current = id
	clear(l.got)
	l.count = 0
	select {
	case <-l.done: // a timed-out op's late completion
	default:
	}
	l.mu.Unlock()

	payload := append([]byte(nil), l.payload...)
	b := l.handlers[origin].(proto.Broadcaster)
	posted := time.Now()
	l.nodes[origin].Inject(func(ctx proto.Context) {
		wait = time.Since(posted)
		_, err := b.Broadcast(ctx, payload)
		l.errc <- err
	})
	l.timer.Reset(liveTimeout)
	defer l.timer.Stop()
	select {
	case err := <-l.errc:
		if err != nil {
			return wait, 0, err
		}
		l.sent++
	case <-l.timer.C:
		return 0, 0, fmt.Errorf("injection timed out")
	}
	select {
	case <-l.done:
		return wait, time.Since(posted), nil
	case <-l.timer.C:
		l.mu.Lock()
		got := l.count
		l.mu.Unlock()
		return wait, 0, fmt.Errorf("live timeout: %d of %d nodes delivered within %v", got, l.cfg.n, liveTimeout)
	}
}

func (l *liveFlood) op(i int) (opResult, error) {
	if i > 0 && i%liveReboot == 0 {
		if err := l.rebuild(); err != nil {
			return opResult{units: 1}, err
		}
	}
	slot := i % l.cfg.origins
	wait, took, err := l.broadcast(l.origins[slot], i)
	if err != nil {
		return opResult{units: 1}, err
	}
	// Every node delivered: the delivered set is the whole cluster. The
	// op's frames are checked in bulk by settle once the cluster is
	// quiet, at verify and at every rebuild.
	return opResult{
		units: 1, nodes: l.cfg.n, delivered: int64(l.cfg.n), expected: int64(l.cfg.n),
		fp: l.slotFP[slot], wait: wait, wall: took,
	}, nil
}

// warmup runs the first cluster up to its rebuild untimed, so the
// footprint is read once the nodes hold liveReboot broadcasts of state,
// as every cluster a timed op runs on does by its end.
func (l *liveFlood) warmup() int { return liveReboot }

// rebuild replaces the cluster with a fresh one, leaving the new
// cluster's boot and warm-up traffic out of the counters and spans, and
// the rebuild's allocation and GC (a forced collection of the old
// cluster included) out of the runtime counters.
func (l *liveFlood) rebuild() error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.settle(); err != nil {
		return err
	}
	var mark totals
	if l.tr != nil {
		mark = l.tr.totals()
	}
	l.close()
	runtime.GC()
	if _, err := l.setup(l.tr); err != nil {
		return err
	}
	if err := l.settle(); err != nil {
		return err
	}
	for k, v := range l.clusterCounters() {
		l.retired[k] -= v
	}
	if l.tr != nil {
		l.tr.skip(mark, l.tr.totals())
	}
	runtime.ReadMemStats(&after)
	l.retired["_rebuild.alloc_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
	l.retired["_rebuild.gc_cycles"] += float64(after.NumGC - before.NumGC)
	l.retired["_rebuild.gc_pause_ns"] += float64(after.PauseTotalNs - before.PauseTotalNs)
	return nil
}

// framesPerOp is the flood contract: the origin sends to every neighbor,
// every other node forwards to all neighbors but its first sender — 2E − (N−1).
func (l *liveFlood) framesPerOp() int { return 2*l.g.M() - (l.cfg.n - 1) }

func (l *liveFlood) owners() (int, func(proto.NodeID) int) {
	return l.cfg.n, func(id proto.NodeID) int { return int(id) }
}

func (l *liveFlood) shards() int { return 0 }

// counters sums the wire accounting of every cluster built so far, and
// the allocation and GC that rebuilds spent (_rebuild.*), which the
// runtime metrics leave out.
func (l *liveFlood) counters() map[string]float64 {
	c := l.clusterCounters()
	for k, v := range l.retired {
		c[k] += v
	}
	return c
}

// clusterCounters sums the running cluster's wire accounting: _msgs
// counts flood data messages sent, _events messages handled by the node
// loops.
func (l *liveFlood) clusterCounters() map[string]float64 {
	c := map[string]float64{}
	for _, n := range l.nodes {
		if n == nil {
			continue // a boot that failed part-way
		}
		st := n.Stats()
		c["_msgs"] += float64(st.TxMsgs[flood.TypeData])
		c["_events"] += float64(st.RxMsgs[flood.TypeData])
		c["_transport.frames"] += float64(st.TxFrames)
		c["_wire.frame_bytes"] += float64(st.TxFrameBytes)
		for _, b := range st.TxBytes {
			c["_wire.msg_bytes"] += float64(b)
		}
	}
	return c
}

func (l *liveFlood) verify([]string) error { return l.settle() }

// settle waits for the cluster to go quiet and checks that it sent and
// received exactly the flood's message count for every broadcast. It
// then runs a no-op through every node's event loop, so every handler
// call the traffic caused has finished (and happened before the
// caller's next read of the tracer).
func (l *liveFlood) settle() error {
	want := float64(l.sent * l.framesPerOp())
	deadline := time.Now().Add(liveTimeout)
	for {
		c := l.clusterCounters()
		if c["_msgs"] == want && c["_events"] == want {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster sent %v and received %v flood messages for %d broadcasts; want %v",
				c["_msgs"], c["_events"], l.sent, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	idle := make(chan struct{}, len(l.nodes))
	for _, n := range l.nodes {
		n.Inject(func(proto.Context) { idle <- struct{}{} })
	}
	for range l.nodes {
		<-idle
	}
	return nil
}

func (l *liveFlood) close() {
	if l.nodes != nil {
		l.retired = l.counters()
	}
	for _, n := range l.nodes {
		if n != nil {
			_ = n.Close()
		}
	}
	if l.nodes != nil {
		debug.SetGCPercent(l.gcPercent)
		debug.SetMemoryLimit(l.memLimit)
	}
	l.nodes = nil
}
