package parity

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netem"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/transport"
)

// tcpRegistry is the loopback-TCP substrate with MemNet-style name
// resolution: nodes listen under stable names on OS-assigned ports, and
// Dial blocks (bounded) until the named listener has registered. The
// address book is therefore complete before the first node boots, so a
// DC round-1 timer on a slow, race-instrumented CI host cannot fire
// into a half-built cluster and silently fail its sends — the boot race
// the earlier post-hoc SetAddr loop left open.
type tcpRegistry struct {
	mu    sync.Mutex
	addrs map[string]string
}

func newTCPRegistry() *tcpRegistry { return &tcpRegistry{addrs: make(map[string]string)} }

func (r *tcpRegistry) Listen(name string) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.addrs[name] = ln.Addr().String()
	r.mu.Unlock()
	return ln, nil
}

func (r *tcpRegistry) Dial(name string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		addr, ok := r.addrs[name]
		r.mu.Unlock()
		if ok {
			return net.DialTimeout("tcp", addr, time.Until(deadline))
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("parity: no listener registered for %s within %v", name, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// pollInterval paces the quiescence polls of a real run.
const pollInterval = 25 * time.Millisecond

// stablePolls is how many consecutive unchanged wire-stat snapshots
// declare the cluster quiescent.
const stablePolls = 4

// cluster is one live run: N transport nodes over one substrate.
type cluster struct {
	sc        *Scenario
	nodes     []*transport.Node
	handlers  []proto.Handler
	delivered []atomic.Bool
	// deliveredAt holds per-node first-delivery wall times (nanoseconds
	// since injection) — the sample the distribution check compares
	// against the sim's virtual delivery times.
	deliveredAt []atomic.Int64
	target      proto.MsgID
	started     time.Time

	mu       sync.Mutex
	lastSeen time.Time // wall time of the most recent delivery
}

// runReal boots the cluster, injects the broadcast, runs it to
// quiescence, shuts it down, and aggregates the wire accounting.
func (sc *Scenario) runReal(handlers func(proto.NodeID) proto.Handler) (*Accounting, error) {
	g, err := sc.topo()
	if err != nil {
		return nil, err
	}
	var substrate transport.Substrate
	if sc.Transport == TransportTCP {
		substrate = newTCPRegistry()
	} else {
		substrate = transport.NewMemNet()
	}

	c := &cluster{
		sc:          sc,
		nodes:       make([]*transport.Node, sc.N),
		handlers:    make([]proto.Handler, sc.N),
		delivered:   make([]atomic.Bool, sc.N),
		deliveredAt: make([]atomic.Int64, sc.N),
		target:      proto.NewMsgID(sc.Payload),
	}
	defer c.close()

	var shaper *netem.Shaper
	if sc.Netem != nil {
		sh := sc.Netem.Shaper(sc.Seed)
		shaper = &sh
	}

	codec := stack.Codec()

	// Both substrates resolve stable names, so the full address book
	// ships in every Config before any node boots — no late-binding
	// window for a round timer to race.
	addrs := make(map[proto.NodeID]string, sc.N)
	for i := 0; i < sc.N; i++ {
		addrs[proto.NodeID(i)] = fmt.Sprintf("%s:node-%d", sc.Transport, i)
	}

	for i := 0; i < sc.N; i++ {
		id := proto.NodeID(i)
		h := handlers(id)
		if f := sc.Fault; f != nil && f.Node == id {
			h = &dropHandler{inner: h, drop: f.Type}
		}
		c.handlers[i] = h

		seed1, seed2 := sim.NodeSeed(sc.Seed, id)
		n, err := transport.Listen(transport.Config{
			Self:       id,
			Listen:     addrs[id],
			AddrBook:   addrs,
			Neighbors:  g.Neighbors(id),
			Codec:      codec,
			Handler:    h,
			Seed:       seed1,
			SeedStream: seed2,
			Net:        substrate,
			Shaper:     shaper,
			OnDeliver: func(mid proto.MsgID, _ []byte) {
				if mid == c.target && c.delivered[id].CompareAndSwap(false, true) {
					now := time.Now()
					c.deliveredAt[id].Store(int64(now.Sub(c.started)))
					c.mu.Lock()
					c.lastSeen = now
					c.mu.Unlock()
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("booting node %d: %w", id, err)
		}
		c.nodes[i] = n
	}
	c.started = time.Now()
	if err := c.inject(); err != nil {
		return nil, err
	}
	if err := c.awaitQuiescence(); err != nil {
		return nil, err
	}
	elapsed := c.lastDelivery()
	c.close()
	return c.accounting(elapsed), nil
}

// inject originates the broadcast at the source node, on its event loop.
func (c *cluster) inject() error {
	b, ok := c.handlers[c.sc.Source].(proto.Broadcaster)
	if !ok {
		return fmt.Errorf("handler at source %d is not a Broadcaster (%T)", c.sc.Source, c.handlers[c.sc.Source])
	}
	errCh := make(chan error, 1)
	c.nodes[c.sc.Source].Inject(func(ctx proto.Context) {
		_, err := b.Broadcast(ctx, c.sc.Payload)
		errCh <- err
	})
	select {
	case err := <-errCh:
		return err
	case <-time.After(c.sc.Timeout):
		return fmt.Errorf("broadcast injection timed out")
	}
}

// awaitQuiescence polls observable conditions — delivery coverage,
// bounded DC rounds, and wire-counter stability — instead of sleeping a
// guessed wall-clock amount. A faulted run is not expected to reach
// full coverage, so it settles on counter stability alone — but only
// after traffic has started, and only once the counters have been
// still for longer than the variant's longest legitimate idle gap
// (the spacing between DC-net or diffusion rounds), so a fault report
// describes a finished run, not one caught between rounds.
func (c *cluster) awaitQuiescence() error {
	deadline := time.Now().Add(c.sc.Timeout)
	// Runs whose completion cannot be observed from delivery coverage —
	// faulted runs, and the adaptive variant whose ball legitimately
	// covers only part of the overlay — settle on counter stability
	// alone, which therefore needs the longer window: twice the longest
	// legitimate inter-round gap, so a scheduler stall between rounds is
	// not mistaken for the end of the run. Runs with a real completion
	// condition keep the short window (stability there only confirms
	// the tail has drained).
	required := stablePolls
	stabilityOnly := c.sc.Fault != nil || c.sc.Protocol == stack.Adaptive || c.sc.lossy()
	if stabilityOnly || c.sc.Netem != nil {
		// Any shaped run needs the widened window even when coverage is
		// its completion signal: duplicate frames tx-counted at send can
		// still sit in the netem delay line after the last delivery, and
		// snapshotting before they land fires a spurious in-flight
		// divergence.
		required = c.settlePolls()
	}
	var lastFP [2]int64
	stable := 0
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not quiescent after %v (delivered %d/%d)",
				c.sc.Timeout, c.deliveredCount(), c.sc.N)
		}
		time.Sleep(pollInterval)
		fp := c.fingerprint()
		if fp == lastFP {
			stable++
		} else {
			stable = 0
			lastFP = fp
		}
		if stable < required {
			continue
		}
		if stabilityOnly {
			// A fault may block every observable completion condition,
			// so the long stillness window is the whole test — but a
			// run that has not put anything on the wire yet has not
			// started, let alone finished.
			if fp == [2]int64{} {
				continue
			}
			return nil
		}
		if !c.progressDone() {
			// Counters can idle between DC rounds; stability here only
			// confirms the tail drained after completion.
			continue
		}
		return nil
	}
}

// settlePolls converts the variant's longest idle gap (doubled, with a
// 200 ms floor) into a poll count for the stability-only window. Shaped
// runs widen the window past the profile's worst-case hold: a frame in
// a netem delay line was tx-counted already, so the counters can look
// still while it is in flight.
func (c *cluster) settlePolls() int {
	gap := 200 * time.Millisecond
	if c.sc.Protocol == stack.Composed && 2*c.sc.DCInterval > gap {
		gap = 2 * c.sc.DCInterval
	}
	if (c.sc.Protocol == stack.Composed || c.sc.Protocol == stack.Adaptive) && 2*c.sc.ADInterval > gap {
		gap = 2 * c.sc.ADInterval
	}
	var maxDelay time.Duration
	if c.sc.Netem != nil {
		maxDelay = c.sc.Netem.MaxDelay()
		if hold := 2 * maxDelay; hold > gap {
			gap = hold
		}
	}
	if c.sc.Reliable {
		// A pending message can sit silent for a full RTO before its
		// retransmission (and its ack) hit the wire again; out-wait the
		// whole retry round trip so a quiet channel is a drained one.
		if hold := 2*reliableRTO + 2*maxDelay; hold > gap {
			gap = hold
		}
	}
	if c.sc.Reliable && c.sc.FailSafe > 0 {
		// A reliable composed run can go completely quiet between the
		// last Phase-3 message and the group members' fail-safe
		// deadline — and whatever the fail-safe floods must land before
		// the snapshot. Out-wait that whole window.
		if fs := c.sc.FailSafe + 2*maxDelay + 500*time.Millisecond; fs > gap {
			gap = fs
		}
	}
	return int(gap / pollInterval)
}

// fingerprint summarizes cluster-wide wire activity for the stability
// check.
func (c *cluster) fingerprint() [2]int64 {
	var tx, rx int64
	for _, n := range c.nodes {
		ntx, nrx := n.FrameCounts()
		tx += ntx
		rx += nrx
	}
	return [2]int64{tx, rx}
}

// progressDone reports whether the run's completion conditions hold:
// full delivery for variants that guarantee it (the adaptive ball covers
// only part of the overlay by design), and all bounded DC rounds
// completed for the composed stack.
func (c *cluster) progressDone() bool {
	if c.sc.Protocol != stack.Adaptive && c.deliveredCount() < c.sc.N {
		return false
	}
	if c.sc.Protocol == stack.Composed {
		for _, m := range c.sc.Group {
			if c.sc.Fault != nil && c.sc.Fault.Node == m {
				continue
			}
			p, ok := c.probe(m)
			if !ok || p.DCRounds < c.sc.DCRounds {
				return false
			}
		}
	}
	return true
}

// probe snapshots one composed node's progress on its event loop.
func (c *cluster) probe(id proto.NodeID) (node.Probe, bool) {
	h := c.handlers[id]
	if d, ok := h.(*dropHandler); ok {
		h = d.inner
	}
	n, ok := h.(*node.Node)
	if !ok {
		return node.Probe{}, false
	}
	ch := make(chan node.Probe, 1)
	c.nodes[id].Inject(func(proto.Context) { ch <- n.Probe() })
	select {
	case p := <-ch:
		return p, true
	case <-time.After(5 * time.Second):
		return node.Probe{}, false
	}
}

func (c *cluster) deliveredCount() int {
	count := 0
	for i := range c.delivered {
		if c.delivered[i].Load() {
			count++
		}
	}
	return count
}

// lastDelivery returns the wall time from injection to the final
// delivery (zero when nothing was delivered).
func (c *cluster) lastDelivery() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastSeen.IsZero() {
		return 0
	}
	return c.lastSeen.Sub(c.started)
}

// close shuts every node down; it is idempotent.
func (c *cluster) close() {
	for _, n := range c.nodes {
		if n != nil {
			_ = n.Close()
		}
	}
}

// accounting aggregates the cluster's transmit-side wire stats — the
// direction the simulator counts.
func (c *cluster) accounting(elapsed time.Duration) *Accounting {
	acct := newAccounting()
	acct.Elapsed = elapsed
	acct.Delivered = c.deliveredCount()
	acct.DeliveryTimes = make([]time.Duration, c.sc.N)
	for i := range acct.DeliveryTimes {
		acct.DeliveryTimes[i] = -1
		if c.delivered[i].Load() {
			acct.DeliveryTimes[i] = time.Duration(c.deliveredAt[i].Load())
		}
	}
	for _, n := range c.nodes {
		s := n.Stats()
		for t, m := range s.TxMsgs {
			acct.Msgs[t] += m
			acct.TotalMsgs += m
		}
		for t, b := range s.TxBytes {
			acct.Bytes[t] += b
			acct.TotalBytes += b
		}
		acct.TxFrames += s.TxFrames
		acct.TxFrameBytes += s.TxFrameBytes
		acct.RxMsgs += sumCounts(s.RxMsgs)
		acct.Dropped += s.TxDropped
		acct.NetemDropped += s.TxShaperDropped
		acct.BadFrames += s.RxBadFrames
	}
	return acct
}

func sumCounts(m map[proto.MsgType]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}
