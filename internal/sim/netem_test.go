package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
)

// netemFloodRun executes one seeded flood broadcast and returns the network
// for inspection; prep, when non-nil, adjusts the network before Start.
func netemFloodRun(t *testing.T, g *topology.Graph, opts Options, prep func(*Network)) (*Network, proto.MsgID) {
	t.Helper()
	net := NewNetwork(g, opts)
	if prep != nil {
		prep(net)
	}
	shared := flood.NewShared(g.N())
	shared.Partition(max(opts.Shards, 1))
	net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
	net.Start()
	id, err := net.Originate(0, []byte{0xab, 0xcd})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	return net, id
}

// TestNetemZeroImpairmentEqualsLegacy pins the fixed-profile branch of
// Network.send: Options.Latency must equal its ConstProfile spelled
// through Options.Netem, and a fixed profile (here constant latency with
// churn) must equal the same profile pushed through the hash shaper —
// same counts, steps and per-node delivery times, at one loop and at
// four shards. The fixed branch must never allocate link streams.
func TestNetemZeroImpairmentEqualsLegacy(t *testing.T) {
	g, err := topology.RandomRegular(256, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	const d = 50 * time.Millisecond
	named := netem.ConstProfile("const", d)
	churny := netem.Profile{
		Latency: netem.Const(d),
		Churn:   netem.Churn{Fraction: 0.2, Start: 20 * time.Millisecond, Down: 300 * time.Millisecond, Period: 50 * time.Millisecond},
	}
	// forceShaped routes a fixed profile through the hash shaper, the
	// path every non-fixed profile takes.
	forceShaped := func(n *Network) {
		sh := n.opts.Netem.Shaper(n.opts.Seed)
		n.shaper = &sh
		n.linkStreams = make([]linkStream, len(n.linkDst))
	}
	for _, k := range []int{1, 4} {
		pairs := []struct {
			name       string
			a, b       Options
			prepB      func(*Network)
			wantCrashy bool
		}{
			{"latency-vs-const-profile", Options{Seed: 5, Latency: ConstLatency(d), Shards: k},
				Options{Seed: 5, Netem: &named, Shards: k}, nil, false},
			{"fixed-churn-vs-shaped", Options{Seed: 5, Netem: &churny, Shards: k},
				Options{Seed: 5, Netem: &churny, Shards: k}, forceShaped, true},
		}
		for _, pc := range pairs {
			t.Run(fmt.Sprintf("%s/k=%d", pc.name, k), func(t *testing.T) {
				fixed, idA := netemFloodRun(t, g, pc.a, nil)
				other, idB := netemFloodRun(t, g, pc.b, pc.prepB)
				if fixed.shaper != nil || fixed.linkStreams != nil {
					t.Fatal("fixed profile took the shaped branch or allocated link streams")
				}
				if fixed.ShardCount() != k || other.ShardCount() != k {
					t.Fatalf("resolved %d/%d loops, want %d", fixed.ShardCount(), other.ShardCount(), k)
				}
				if idA != idB {
					t.Fatal("broadcast IDs differ")
				}
				if fixed.TotalMessages() != other.TotalMessages() || fixed.Steps() != other.Steps() {
					t.Errorf("runs differ: msgs %d/%d steps %d/%d",
						fixed.TotalMessages(), other.TotalMessages(), fixed.Steps(), other.Steps())
				}
				if other.NetemDropped() != 0 {
					t.Errorf("zero-loss profile dropped %d messages", other.NetemDropped())
				}
				if got := fixed.Delivered(idA); got != other.Delivered(idB) || (got == g.N()) == pc.wantCrashy {
					t.Errorf("coverage %d/%d of %d (churn active: %v)", got, other.Delivered(idB), g.N(), pc.wantCrashy)
				}
				for node, at := range fixed.Deliveries(idA).All() {
					if got, ok := other.DeliveryTime(idB, node); !ok || got != at {
						t.Fatalf("delivery time at node %d differs: %v vs %v (ok=%v)", node, at, got, ok)
					}
				}
			})
		}
	}
}

// TestNetemShapedDeterminism requires a shaped run — loss, jitter and
// churn all active — to be a pure function of the seed, across both
// fresh networks and Reset reuse (the trial-runner contract).
func TestNetemShapedDeterminism(t *testing.T) {
	g, err := topology.RandomRegular(256, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	profile := netem.Profile{
		Latency: netem.Const(20 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
		Loss:    0.05,
		Churn:   netem.Churn{Fraction: 0.1, Start: 10 * time.Millisecond, Down: 50 * time.Millisecond},
	}
	opts := Options{Seed: 9, Netem: &profile}
	a, idA := netemFloodRun(t, g, opts, nil)
	b, idB := netemFloodRun(t, g, opts, nil)
	if a.TotalMessages() != b.TotalMessages() || a.NetemDropped() != b.NetemDropped() ||
		a.Delivered(idA) != b.Delivered(idB) {
		t.Fatalf("shaped runs diverge: msgs %d/%d drops %d/%d delivered %d/%d",
			a.TotalMessages(), b.TotalMessages(), a.NetemDropped(), b.NetemDropped(),
			a.Delivered(idA), b.Delivered(idB))
	}
	if a.NetemDropped() == 0 {
		t.Error("5% loss shed nothing — shaper inactive?")
	}

	// Reset ≡ fresh under a profile: drops and deliveries replay.
	shared := flood.NewShared(g.N())
	net := NewNetwork(g, opts)
	for trial := 0; trial < 2; trial++ {
		net.Reset(9)
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		id, err := net.Originate(0, []byte{0xab, 0xcd})
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		if net.TotalMessages() != a.TotalMessages() || net.NetemDropped() != a.NetemDropped() ||
			net.Delivered(id) != a.Delivered(idA) {
			t.Fatalf("reset trial %d diverges from fresh run: msgs %d/%d drops %d/%d",
				trial, net.TotalMessages(), a.TotalMessages(), net.NetemDropped(), a.NetemDropped())
		}
	}
}

// TestNetemChurnCrashesNodes checks the churn schedule actually passes
// through the event loop. With Fraction 1.0, Down = Period = 100 ms and
// Start = 10 ms, every node's crash phase lies in [0, 100ms), so its
// outage covers [10ms+φ, 110ms+φ) — at t = 109 ms every node is down
// (crashed by 109, rejoined no earlier than 110). A flood injected then
// delivers only at its source until the rejoins land; after the last
// rejoin a fresh broadcast recovers full coverage.
func TestNetemChurnCrashesNodes(t *testing.T) {
	g, err := topology.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	profile := netem.Profile{
		Latency: netem.Const(time.Millisecond),
		Churn: netem.Churn{
			Fraction: 1.0, Start: 10 * time.Millisecond,
			Down: 100 * time.Millisecond, Period: 100 * time.Millisecond, Cycles: 1,
		},
	}
	net := NewNetwork(g, Options{Seed: 3, Netem: &profile})
	shared := flood.NewShared(g.N())
	net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
	net.Start()

	net.RunUntil(109 * time.Millisecond)
	down := 0
	for v := 0; v < g.N(); v++ {
		if net.Crashed(proto.NodeID(v)) {
			down++
		}
	}
	if down != g.N() {
		t.Fatalf("%d/%d nodes down during the full-outage instant", down, g.N())
	}
	id, err := net.Originate(0, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	// Messages sent at 109 ms arrive at 110 ms at the earliest; before
	// that only the source has delivered locally.
	net.RunUntil(109500 * time.Microsecond)
	if got := net.Delivered(id); got != 1 {
		t.Errorf("broadcast into a full outage delivered to %d nodes before any arrival", got)
	}

	// Past every rejoin, all nodes are back and a new broadcast floods
	// the whole ring again.
	net.Run(0)
	for v := 0; v < g.N(); v++ {
		if net.Crashed(proto.NodeID(v)) {
			t.Fatalf("node %d still down after the schedule drained", v)
		}
	}
	id2, err := net.Originate(0, []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if got := net.Delivered(id2); got != g.N() {
		t.Errorf("post-churn broadcast delivered to %d/%d", got, g.N())
	}
}
