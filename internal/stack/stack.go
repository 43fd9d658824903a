// Package stack is the one place a protocol stack is assembled. A Spec
// states a scenario's protocol parameters once — the paper's single
// broadcast description with adjustable (k, d) — and Factory maps them
// onto whichever protocol's configuration applies, so the simulator,
// the experiments, the parity harness and live nodes all build
// handlers the same way. The package also owns the node codec and the
// message type → name → phase table every report uses (wire.go).
package stack

import (
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/node"
	"repro/internal/proto"
)

// Protocol selects a broadcast protocol stack.
type Protocol int

// Supported protocols.
const (
	// Flood is plain flood-and-prune (no privacy).
	Flood Protocol = iota + 1
	// Dandelion is the stem/fluff baseline of §III-A.
	Dandelion
	// Adaptive is adaptive diffusion alone (no delivery guarantee).
	Adaptive
	// Composed is the paper's three-phase protocol (§IV).
	Composed
)

var protocolNames = [...]string{Flood: "flood", Dandelion: "dandelion", Adaptive: "adaptive", Composed: "composed"}

// String returns the protocol name ParseProtocol accepts.
func (p Protocol) String() string {
	if p >= Flood && p <= Composed {
		return protocolNames[p]
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol maps a protocol name (flood, dandelion, adaptive or
// composed) to its Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for p := Flood; p <= Composed; p++ {
		if protocolNames[p] == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("stack: unknown protocol %q (flood|dandelion|adaptive|composed)", s)
}

// retryBudget bounds retransmissions per message whenever a stack
// mounts its reliable channel.
const retryBudget = 3

// dandelionEpoch is the stem successor re-randomization interval: past
// every run horizon, so the successor graph is drawn once, at Init.
const dandelionEpoch = time.Hour

// Spec declares one protocol stack. Each field applies to every
// protocol that has the corresponding knob and is ignored by the rest;
// a zero value keeps the protocol package's own default.
type Spec struct {
	Protocol Protocol

	// Group is the composed protocol's DC-net group; only its members
	// are handed it. Hashes maps node IDs to identity hashes for
	// virtual-source selection and must cover Group.
	Group  []proto.NodeID
	Hashes map[proto.NodeID][32]byte

	// D and ADInterval are the adaptive-diffusion round count and round
	// interval; TreeDegree is Alpha's degree assumption (adaptive,
	// composed).
	D          int
	ADInterval time.Duration
	TreeDegree int
	// Q is Dandelion's per-hop fluff probability.
	Q float64

	// The composed protocol's Phase 1: DC-net round mode, fixed-mode
	// slot size, round interval, round bound (0: unbounded) and failure
	// policy.
	DCMode     dcnet.Mode
	DCSlotSize int
	DCInterval time.Duration
	DCRounds   int
	DCPolicy   dcnet.Policy

	// FailSafe is the coverage-first deadline: Dandelion fluffs a stem
	// transaction not yet seen broadcast, composed group members flood
	// a recovered payload Phase 2/3 has not delivered (0: off).
	FailSafe time.Duration
	// RTO mounts the reliable channel under every message the protocol
	// sends point to point — the DC-net exchange, the diffusion surface
	// or the stem relay — retransmitting after RTO up to three times
	// (0: off).
	RTO time.Duration
	// Failover lets a composed group evict a member silent for two
	// stalled rounds, down to one below the group size; a stalled round
	// is abandoned after a full retry chain, (retries+1)·RTO.
	Failover bool

	// Node, when set, runs each composed handler inside a blockchain
	// node configured by Node(id); the stack fills in its Core. Nil
	// runs the bare protocol.
	Node func(id proto.NodeID) node.Config
}

// Factory validates the spec and returns its per-node handler
// constructor.
func (s Spec) Factory() (func(id proto.NodeID) proto.Handler, error) {
	switch s.Protocol {
	case Flood:
		return func(proto.NodeID) proto.Handler { return flood.New() }, nil
	case Dandelion:
		cfg := dandelion.Config{Q: s.Q, Epoch: dandelionEpoch, FailSafe: s.FailSafe,
			RetransmitTimeout: s.RTO, RetryBudget: retryBudget}
		return func(proto.NodeID) proto.Handler { return dandelion.New(cfg) }, nil
	case Adaptive:
		cfg := adaptive.Config{D: s.D, RoundInterval: s.ADInterval, TreeDegree: s.TreeDegree,
			RetransmitTimeout: s.RTO, RetryBudget: retryBudget}
		return func(proto.NodeID) proto.Handler { return adaptive.New(cfg) }, nil
	case Composed:
		return s.composed()
	}
	return nil, fmt.Errorf("stack: unknown protocol %v", s.Protocol)
}

func (s Spec) composed() (func(id proto.NodeID) proto.Handler, error) {
	if len(s.Group) == 1 {
		return nil, fmt.Errorf("stack: %w", dcnet.ErrGroupTooSmall)
	}
	member := make(map[proto.NodeID]bool, len(s.Group))
	for _, m := range s.Group {
		if _, ok := s.Hashes[m]; !ok {
			return nil, fmt.Errorf("stack: %w: %d", core.ErrMissingHash, m)
		}
		member[m] = true
	}
	base := core.Config{
		D: s.D, Hashes: s.Hashes,
		DCMode: s.DCMode, DCSlotSize: s.DCSlotSize, DCInterval: s.DCInterval,
		DCMaxRounds: s.DCRounds, DCPolicy: s.DCPolicy,
		DCRetransmitTimeout: s.RTO, FailSafe: s.FailSafe,
		ADInterval: s.ADInterval, TreeDegree: s.TreeDegree,
	}
	if s.Failover {
		base.DCTimeout = (retryBudget + 1) * s.RTO
		base.DCEvictAfter = 2
		base.DCFloor = len(s.Group) - 1
	}
	return func(id proto.NodeID) proto.Handler {
		cfg := base
		if member[id] {
			cfg.Group = s.Group
		}
		var h proto.Handler
		var err error
		if s.Node == nil {
			h, err = core.New(cfg)
		} else {
			nc := s.Node(id)
			nc.Core = cfg
			h, err = node.New(nc)
		}
		if err != nil {
			// core.New fails only on a group member without a hash,
			// which composed() rejected above.
			panic(fmt.Sprintf("stack: building node %d: %v", id, err))
		}
		return h
	}, nil
}
