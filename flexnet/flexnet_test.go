package flexnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestSimulateFlood(t *testing.T) {
	res, err := Simulate(SimConfig{N: 100, Degree: 8, Protocol: ProtocolFlood, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 100 {
		t.Errorf("Delivered = %d/100", res.Delivered)
	}
	// 2E − (N−1) = 800 − 99 = 701.
	if res.TotalMessages != 701 {
		t.Errorf("TotalMessages = %d, want 701", res.TotalMessages)
	}
	if res.PhaseMessages["flood"] != 701 {
		t.Errorf("flood messages = %d", res.PhaseMessages["flood"])
	}
	if res.TimeToCoverage == 0 {
		t.Error("no coverage time recorded")
	}
	var last time.Duration
	for node, at := range res.DeliveryTimes {
		if at < 0 {
			t.Errorf("node %d has no delivery time", node)
		}
		last = max(last, at)
	}
	if len(res.DeliveryTimes) != 100 || last != res.TimeToCoverage {
		t.Errorf("DeliveryTimes: %d entries, last %v; want 100, %v", len(res.DeliveryTimes), last, res.TimeToCoverage)
	}
}

// TestPhaseMessagesSumToTotal requires the per-phase breakdown to
// account for every message each protocol sends.
func TestPhaseMessagesSumToTotal(t *testing.T) {
	for _, p := range []Protocol{ProtocolFlood, ProtocolDandelion, ProtocolAdaptive, ProtocolFlexnet} {
		res, err := Simulate(SimConfig{N: 200, Degree: 8, Protocol: p, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, n := range res.PhaseMessages {
			sum += n
		}
		if sum != res.TotalMessages || sum == 0 {
			t.Errorf("%v: phases sum to %d of %d messages", p, sum, res.TotalMessages)
		}
	}
}

func TestSimulateDandelion(t *testing.T) {
	res, err := Simulate(SimConfig{N: 100, Degree: 8, Protocol: ProtocolDandelion, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 100 {
		t.Errorf("Delivered = %d/100", res.Delivered)
	}
	if res.PhaseMessages["stem"] == 0 {
		t.Error("no stem messages despite dandelion")
	}
}

func TestSimulateAdaptivePartialCoverage(t *testing.T) {
	res, err := Simulate(SimConfig{N: 200, Degree: 8, Protocol: ProtocolAdaptive, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Delivered == 200 {
		t.Errorf("adaptive-only Delivered = %d, want partial coverage", res.Delivered)
	}
}

func TestSimulateFlexnetFullPipeline(t *testing.T) {
	res, err := Simulate(SimConfig{N: 150, Degree: 8, Protocol: ProtocolFlexnet, K: 4, D: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 150 {
		t.Errorf("Delivered = %d/150", res.Delivered)
	}
	if res.GroupSize < 4 || res.GroupSize > 7 {
		t.Errorf("GroupSize = %d, want within [4,7]", res.GroupSize)
	}
	for _, phase := range []string{"dcnet", "adaptive", "flood"} {
		if res.PhaseMessages[phase] == 0 {
			t.Errorf("no %s messages in flexnet run", phase)
		}
	}
}

func TestSimulateFlexnetGroupAttackFloor(t *testing.T) {
	// With an adversary, the group attack's suspect set must contain the
	// originator and have size ≥ 1 — the k-anonymity floor.
	hits := 0
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := Simulate(SimConfig{
			N: 100, Degree: 8, Protocol: ProtocolFlexnet,
			K: 5, D: 3, Seed: seed, AdversaryFraction: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.GroupSuspectSet == 0 {
			t.Error("empty suspect set")
		}
		if res.GroupAttackHit {
			hits++
			// Even when the set contains the truth, the adversary's
			// success probability is 1/set — the flexibility guarantee.
			if res.GroupSuspectSet < 2 {
				t.Errorf("anonymity set of %d leaves no protection", res.GroupSuspectSet)
			}
		}
	}
	if hits == 0 {
		t.Error("originator never in suspect set; group attack modeled wrong")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	run := func() *SimResult {
		res, err := Simulate(SimConfig{N: 80, Degree: 6, Protocol: ProtocolFlexnet, K: 4, D: 3, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalMessages != b.TotalMessages || a.Originator != b.Originator || a.TimeToCoverage != b.TimeToCoverage {
		t.Errorf("non-deterministic Simulate: %+v vs %+v", a, b)
	}
}

func TestSimulateTopologies(t *testing.T) {
	for _, topo := range []Topology{TopologyRandomRegular, TopologyRing, TopologyLine, TopologySmallWorld, TopologyScaleFree} {
		res, err := Simulate(SimConfig{N: 60, Degree: 4, Topology: topo, Protocol: ProtocolFlood, Seed: 9})
		if err != nil {
			t.Fatalf("topology %d: %v", topo, err)
		}
		if res.Delivered != 60 {
			t.Errorf("topology %d: delivered %d/60", topo, res.Delivered)
		}
	}
}

// TestSimulateRejectsBadAdversaryFraction requires an error for every
// adversary fraction outside [0,1): 1.0 (and anything close enough to
// round up to every node) leaves no honest originator to draw, 1.5
// overruns the node permutation, and a negative or NaN fraction would
// silently disable the attack. Each call runs under a deadline because
// the all-corrupted case used to loop forever.
func TestSimulateRejectsBadAdversaryFraction(t *testing.T) {
	for _, f := range []float64{-0.5, 1.0, 1.5, math.NaN(), 1 - 1e-12} {
		done := make(chan string, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Sprintf("panicked: %v", r)
				}
			}()
			if _, err := Simulate(SimConfig{N: 50, Degree: 4, Protocol: ProtocolFlood, Seed: 1, AdversaryFraction: f}); err == nil {
				done <- "accepted"
				return
			}
			done <- ""
		}()
		select {
		case got := <-done:
			if got != "" {
				t.Errorf("AdversaryFraction %v: %s, want an error", f, got)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("AdversaryFraction %v: Simulate did not return", f)
		}
	}
}

// TestSimulateRejectsNegativeLatency requires an error for a negative
// per-hop latency, which would schedule every delivery before its send
// and report a meaningless time to coverage.
func TestSimulateRejectsNegativeLatency(t *testing.T) {
	for _, ms := range []int{-1, -5} {
		if _, err := Simulate(SimConfig{N: 50, Degree: 4, Protocol: ProtocolFlood, Seed: 1, LatencyMs: ms}); err == nil {
			t.Errorf("LatencyMs %d accepted", ms)
		}
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		ProtocolFlood: "flood", ProtocolDandelion: "dandelion",
		ProtocolAdaptive: "adaptive", ProtocolFlexnet: "flexnet",
		Protocol(9): "Protocol(9)",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestStartNodeTCPCluster(t *testing.T) {
	// A 6-node localhost cluster: nodes 0–3 form the DC-net group; the
	// overlay is a ring. One anonymous transaction must reach every
	// node's mempool.
	const n = 6
	addrs := make(map[int32]string, n)
	seeds := make(map[int32][32]byte)
	for i := int32(0); i < 4; i++ {
		var s [32]byte
		binary.LittleEndian.PutUint32(s[:], uint32(i))
		seeds[i] = s
	}
	nodes := make([]*Node, n)
	// Listen on OS-assigned ports, then fill the shared address book.
	for i := int32(0); i < n; i++ {
		var grp []int32
		if i < 4 {
			grp = []int32{0, 1, 2, 3}
		}
		node, err := StartNode(NodeConfig{
			ID:            i,
			Listen:        "127.0.0.1:0",
			AddrBook:      addrs,
			Neighbors:     []int32{(i + n - 1) % n, (i + 1) % n},
			Group:         grp,
			IdentitySeeds: seeds,
			K:             4, D: 2,
			DCInterval: 150 * time.Millisecond,
			Seed:       uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		defer func() { _ = node.Close() }()
	}
	for i := int32(0); i < n; i++ {
		addrs[i] = nodes[i].Addr()
	}
	// Late-bind the address book (ports were OS-assigned).
	for _, node := range nodes {
		for id, addr := range addrs {
			node.SetAddr(id, addr)
		}
	}

	if err := nodes[1].SubmitTx([]byte("anonymous payment"), 42); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for i := 0; i < n; i++ {
			if nodes[i].MempoolSize() < 1 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			sizes := make([]int, n)
			for i := range nodes {
				sizes[i] = nodes[i].MempoolSize()
			}
			t.Fatalf("tx did not reach all mempools: %v", sizes)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
