// Package flexnet is the public API of this repository: a Go
// implementation of "A Flexible Network Approach to Privacy of Blockchain
// Transactions" (Mödinger, Kopp, Kargl, Hauck — ICDCS 2018).
//
// The library provides the paper's three-phase privacy-preserving
// broadcast — a DC-net group phase (cryptographic k-anonymity), an
// adaptive-diffusion phase (statistical obfuscation), and a
// flood-and-prune phase (guaranteed delivery) — together with the
// baselines it is evaluated against (plain flooding, Dandelion, adaptive
// diffusion alone), a deterministic network simulator, an adversary
// toolkit, and a runnable TCP blockchain node.
//
// Two entry points cover the two ways to use it:
//
//   - Simulate runs one broadcast on a simulated overlay and reports
//     cost, coverage and (optionally) deanonymization outcomes — the
//     building block of every experiment in EXPERIMENTS.md.
//   - StartNode launches a real node over TCP: privacy broadcast for
//     transactions, plain flood for blocks, mempool and toy-PoW miner.
package flexnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dcnet"
	"repro/internal/group"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

// Protocol selects the broadcast protocol under test. Its values are
// the internal stack's, so converting between the two is exact.
type Protocol int

// Supported protocols.
const (
	// ProtocolFlood is plain flood-and-prune (no privacy).
	ProtocolFlood = Protocol(stack.Flood)
	// ProtocolDandelion is the stem/fluff baseline of §III-A.
	ProtocolDandelion = Protocol(stack.Dandelion)
	// ProtocolAdaptive is adaptive diffusion alone (no delivery
	// guarantee, §III-A).
	ProtocolAdaptive = Protocol(stack.Adaptive)
	// ProtocolFlexnet is the paper's three-phase protocol (§IV).
	ProtocolFlexnet = Protocol(stack.Composed)
)

// String returns the protocol name.
func (p Protocol) String() string {
	if p == ProtocolFlexnet {
		return "flexnet"
	}
	return stack.Protocol(p).String()
}

// Topology selects the overlay family for Simulate.
type Topology int

// Supported topologies.
const (
	// TopologyRandomRegular is a random d-regular overlay (the paper's
	// simulation substrate).
	TopologyRandomRegular Topology = iota + 1
	// TopologyRing is a cycle.
	TopologyRing
	// TopologyLine is a path.
	TopologyLine
	// TopologySmallWorld is Watts–Strogatz with β = 0.2.
	TopologySmallWorld
	// TopologyScaleFree is Barabási–Albert.
	TopologyScaleFree
)

// SimConfig parametrizes one simulated broadcast.
type SimConfig struct {
	// N is the node count (default 1000, the paper's setting).
	N int
	// Degree is the overlay degree (default 8, matching the paper's
	// 7,000-message flood baseline).
	Degree int
	// Topology defaults to TopologyRandomRegular.
	Topology Topology
	// Protocol defaults to ProtocolFlexnet.
	Protocol Protocol
	// K is the anonymity parameter (default 5).
	K int
	// D is the number of adaptive-diffusion rounds (default 4). Both K
	// and D only apply to ProtocolFlexnet / ProtocolAdaptive.
	D int
	// Q is Dandelion's fluff probability (default 0.1).
	Q float64
	// Seed drives all randomness (topology uses Seed+1).
	Seed uint64
	// Payload is the broadcast content (default 250 random bytes, a
	// typical transaction size).
	Payload []byte
	// AdversaryFraction corrupts this fraction of nodes as passive
	// observers; it must lie in [0,1) (0 disables the attack analysis).
	AdversaryFraction float64
	// LatencyMs is the constant per-hop latency (default 50 ms).
	LatencyMs int
	// MaxDuration bounds virtual time (default 10 min).
	MaxDuration time.Duration
}

func (c *SimConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 1000
	}
	if c.Degree == 0 {
		c.Degree = 8
	}
	if c.Topology == 0 {
		c.Topology = TopologyRandomRegular
	}
	if c.Protocol == 0 {
		c.Protocol = ProtocolFlexnet
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.D == 0 {
		c.D = 4
	}
	if c.Q == 0 {
		c.Q = 0.1
	}
	if c.LatencyMs == 0 {
		c.LatencyMs = 50
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 10 * time.Minute
	}
}

// SimResult reports one simulated broadcast.
type SimResult struct {
	// N is the network size; Delivered the number of nodes that received
	// the payload.
	N, Delivered int
	// Originator is the true source; GroupSize its DC-net group size
	// (flexnet only).
	Originator int32
	GroupSize  int
	// TotalMessages counts every protocol message sent; PhaseMessages
	// breaks them down by phase: "dcnet", "adaptive", "flood", "stem",
	// and the auxiliary "group", "chain", "relchan" and "workload".
	TotalMessages int64
	PhaseMessages map[string]int64
	// TimeToCoverage is the virtual time until the last delivery.
	TimeToCoverage time.Duration
	// DeliveryTimes is each node's first-delivery time since
	// origination, indexed by node ID; -1 marks an undelivered node.
	DeliveryTimes []time.Duration
	// Adversary outcomes (when AdversaryFraction > 0): FirstSpy point
	// estimate, whether it hit, and the k-anonymity suspect-set size the
	// group attack achieves against flexnet (0 otherwise).
	FirstSpySuspect int32
	FirstSpyCorrect bool
	GroupSuspectSet int
	GroupAttackHit  bool
}

// Simulate runs one broadcast and reports the outcome.
func Simulate(cfg SimConfig) (*SimResult, error) {
	cfg.applyDefaults()
	if !(cfg.AdversaryFraction >= 0 && cfg.AdversaryFraction < 1) {
		return nil, fmt.Errorf("flexnet: AdversaryFraction %v outside [0,1)", cfg.AdversaryFraction)
	}
	topoRNG := rand.New(rand.NewPCG(cfg.Seed+1, 0x51ed2701))
	g, err := buildTopology(cfg, topoRNG)
	if err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, errors.New("flexnet: generated topology is disconnected; change Seed")
	}

	runRNG := rand.New(rand.NewPCG(cfg.Seed, 0xabcdef12))
	payload := cfg.Payload
	if payload == nil {
		payload = make([]byte, 250)
		for i := range payload {
			payload[i] = byte(runRNG.Uint32())
		}
	}

	// Adversary.
	var obs *adversary.Observer
	if cfg.AdversaryFraction > 0 {
		corrupted := adversary.SampleCorrupted(cfg.N, cfg.AdversaryFraction, runRNG)
		if len(corrupted) == cfg.N {
			return nil, fmt.Errorf("flexnet: AdversaryFraction %v corrupts all %d nodes, leaving no honest originator",
				cfg.AdversaryFraction, cfg.N)
		}
		obs = adversary.NewObserver(corrupted)
	}

	// Originator: an honest node.
	origin := proto.NodeID(runRNG.IntN(cfg.N))
	for obs != nil && obs.Corrupted(origin) {
		origin = proto.NodeID(runRNG.IntN(cfg.N))
	}

	// Group placement for flexnet: a directory partition over all nodes;
	// the originator's group drives Phase 1.
	var members []proto.NodeID
	if cfg.Protocol == ProtocolFlexnet {
		dir, err := group.NewDirectory(cfg.K)
		if err != nil {
			return nil, fmt.Errorf("flexnet: %w", err)
		}
		order := runRNG.Perm(cfg.N)
		for _, v := range order {
			if err := dir.Join(proto.NodeID(v), runRNG); err != nil {
				return nil, fmt.Errorf("flexnet: %w", err)
			}
		}
		gids := dir.GroupsOf(origin)
		if len(gids) == 0 {
			return nil, errors.New("flexnet: originator not placed in a group (N < K?)")
		}
		members = dir.Group(gids[0]).Members
	}

	spec := stack.Spec{
		Protocol: stack.Protocol(cfg.Protocol), Group: members, Hashes: core.SimHashes(cfg.N),
		D: cfg.D, ADInterval: 500 * time.Millisecond, TreeDegree: cfg.Degree, Q: cfg.Q,
		DCMode: dcnet.ModeFixed, DCSlotSize: len(payload) + dcnet.SlotOverhead,
		DCInterval: 2 * time.Second, DCPolicy: dcnet.PolicyNone,
	}
	if cfg.Protocol == ProtocolDandelion {
		// Dandelion's recommended fail-safe; the composed protocol runs
		// strict, with no coverage-first recovery.
		spec.FailSafe = 30 * time.Second
	}
	handlers, err := spec.Factory()
	if err != nil {
		return nil, fmt.Errorf("flexnet: %w", err)
	}

	net := sim.NewNetwork(g, sim.Options{
		Seed:    cfg.Seed,
		Latency: sim.ConstLatency(time.Duration(cfg.LatencyMs) * time.Millisecond),
	})
	if obs != nil {
		net.AddTap(obs)
	}
	net.SetHandlers(handlers)
	net.Start()
	id, err := net.Originate(origin, payload)
	if err != nil {
		return nil, fmt.Errorf("flexnet: %w", err)
	}
	// Run until coverage stalls or completes, so periodic Phase-1 rounds
	// after the broadcast do not inflate the per-broadcast cost.
	runUntilSettled(net, id, cfg.N, cfg.MaxDuration)

	res := &SimResult{
		N:             cfg.N,
		Delivered:     net.Delivered(id),
		Originator:    int32(origin),
		GroupSize:     len(members),
		TotalMessages: net.TotalMessages(),
		PhaseMessages: make(map[string]int64),
		DeliveryTimes: make([]time.Duration, cfg.N),
	}
	for _, wt := range stack.WireTypes() {
		res.PhaseMessages[wt.Phase.Key()] += net.MessagesOfType(wt.Type)
	}
	for i := range res.DeliveryTimes {
		res.DeliveryTimes[i] = -1
	}
	for node, at := range net.Deliveries(id).All() {
		res.DeliveryTimes[node] = at
		res.TimeToCoverage = max(res.TimeToCoverage, at)
	}

	if obs != nil {
		observations := obs.Observations(id)
		suspect := adversary.FirstSpy(observations)
		res.FirstSpySuspect = int32(suspect)
		res.FirstSpyCorrect = suspect == origin
		if cfg.Protocol == ProtocolFlexnet {
			// Group attack: worst case, the adversary knows the group
			// composition; honest members form the suspect set.
			honest := make([]proto.NodeID, 0, len(members))
			for _, m := range members {
				if !obs.Corrupted(m) {
					honest = append(honest, m)
				}
			}
			res.GroupSuspectSet = len(honest)
			for _, m := range honest {
				if m == origin {
					res.GroupAttackHit = true
				}
			}
		}
	}
	return res, nil
}

// runUntilSettled advances the simulation in steps until the broadcast
// reaches every node, coverage stops growing for a grace window, or the
// deadline passes.
func runUntilSettled(net *sim.Network, id proto.MsgID, n int, deadline time.Duration) {
	const step = 500 * time.Millisecond
	grace := 0
	last := 0
	for net.Now() < deadline {
		net.RunUntil(net.Now() + step)
		cur := net.Delivered(id)
		if cur >= n {
			return
		}
		if cur == last {
			grace++
			// Adaptive-only runs legitimately stall after the final
			// round; DC-net phases can idle for a couple of rounds
			// before the announcement lands, so wait generously.
			if grace > 20 {
				return
			}
		} else {
			grace = 0
			last = cur
		}
	}
}

func buildTopology(cfg SimConfig, rng *rand.Rand) (*topology.Graph, error) {
	switch cfg.Topology {
	case TopologyRandomRegular:
		return topology.RandomRegular(cfg.N, cfg.Degree, rng)
	case TopologyRing:
		return topology.Ring(cfg.N)
	case TopologyLine:
		return topology.Line(cfg.N)
	case TopologySmallWorld:
		return topology.WattsStrogatz(cfg.N, cfg.Degree, 0.2, rng)
	case TopologyScaleFree:
		return topology.BarabasiAlbert(cfg.N, cfg.Degree/2+1, rng)
	default:
		return nil, fmt.Errorf("flexnet: unknown topology %d", cfg.Topology)
	}
}
