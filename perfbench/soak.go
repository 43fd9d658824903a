package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dcnet"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// soakParams sizes the open-world soak of the composed stack.
type soakParams struct {
	n      int
	rate   float64       // Poisson arrivals per second
	inject time.Duration // injection window
	drain  time.Duration // virtual time for in-flight payloads to finish
}

// The composed stack's shape: a k=5 DC-net group on an 8-regular
// overlay, with 10% of the nodes spies.
const (
	soakK       = 5
	soakDegree  = 8
	soakSpyFrac = 0.1
)

// soakConfig: the paper's composed protocol under sustained load — many
// concurrent payloads, a timer-heavy small event heap, handler state in
// adaptive/dcnet/relchan and admission.
var soakConfig = soakParams{
	n: 1000, rate: 100, inject: time.Second, drain: 20 * time.Second,
}

// soakSlots independent instances — each with its own overlay, spies
// and arrival schedule drawn from the run seed — make up one cycle of
// ops, so a run's cost per transaction averages over several draws
// instead of riding on one.
const soakSlots = 4

type soakSim struct {
	cfg  soakParams
	seed uint64

	tr    *tracer
	group []proto.NodeID
	inst  []*soakInstance
}

// soakInstance is one slot: a soak network and its adversary.
type soakInstance struct {
	seed        uint64
	sn          *workload.SoakNet
	inner       []*core.Protocol
	obs         *adversary.Observer
	corrupted   []proto.NodeID
	tap         sim.Tap
	originators []proto.NodeID
}

func newSoakSim(cfg soakParams, seed uint64) *soakSim { return &soakSim{cfg: cfg, seed: seed} }

// stack builds one node of the composed protocol with E15's reliability
// settings: ack/retransmit sized to 50–70 ms links, eviction after two
// silent rounds down to a floor of three, and the 2 s fail-safe flood.
func (s *soakSim) stack(in *soakInstance, hashes map[proto.NodeID][32]byte, inGroup map[proto.NodeID]bool) func(proto.NodeID) proto.Handler {
	return func(id proto.NodeID) proto.Handler {
		cfg := core.Config{
			K: len(s.group), D: 4, Hashes: hashes,
			DCMode: dcnet.ModeAnnounce, DCInterval: 250 * time.Millisecond,
			DCPolicy: dcnet.PolicyNone, DCMaxRounds: 16,
			ADInterval: 250 * time.Millisecond, TreeDegree: soakDegree,
			DCRetransmitTimeout: 150 * time.Millisecond,
			DCRetryBudget:       3,
			DCTimeout:           600 * time.Millisecond,
			DCEvictAfter:        2,
			DCFloor:             3,
			FailSafe:            2 * time.Second,
		}
		if inGroup[id] {
			cfg.Group = s.group
		}
		p, err := core.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("perfbench: composed node %d: %v", id, err))
		}
		in.inner[id] = p
		if s.tr != nil {
			return s.tr.wrap(id, p)
		}
		return p
	}
}

func (s *soakSim) setup(tr *tracer) (time.Duration, error) {
	s.tr = tr
	n := s.cfg.n
	s.group = make([]proto.NodeID, 0, soakK)
	inGroup := make(map[proto.NodeID]bool, soakK)
	for i := range soakK {
		m := proto.NodeID(i * (n / soakK))
		s.group = append(s.group, m)
		inGroup[m] = true
	}
	hashes := core.SimHashes(n)
	profile := netem.Profile{
		Name:    "loss5-jitter",
		Latency: netem.Const(50 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 20 * time.Millisecond},
		Loss:    0.05,
	}
	var topo time.Duration
	s.inst = make([]*soakInstance, soakSlots)
	for slot := range s.inst {
		in := &soakInstance{seed: s.seed*soakSlots + uint64(slot), inner: make([]*core.Protocol, n)}
		s.inst[slot] = in
		t := time.Now()
		g, err := topology.RandomRegular(n, soakDegree, rand.New(rand.NewPCG(in.seed, 0x746f706f)))
		if err != nil {
			return 0, err
		}
		topo += time.Since(t)
		in.sn = workload.NewSoakNet(workload.SoakConfig{
			Spec:      workload.Spec{Rate: s.cfg.rate, Resubmit: 0.05},
			Duration:  s.cfg.inject,
			Drain:     s.cfg.drain,
			Topo:      g,
			Seed:      in.seed,
			Netem:     &profile,
			Stack:     s.stack(in, hashes, inGroup),
			Admission: workload.AdmissionConfig{QueueCap: 128, Policy: workload.DropOldest},
			Service:   2 * time.Millisecond,
		})

		// Arrivals land on the honest group members; a spy draw
		// corrupting every member is re-rolled, as E17 does.
		rng := rand.New(rand.NewPCG(in.seed, 0x73707973))
		for len(in.originators) == 0 {
			in.corrupted = adversary.SampleCorrupted(n, soakSpyFrac, rng)
			in.obs = adversary.NewObserver(in.corrupted)
			for _, m := range s.group {
				if !in.obs.Corrupted(m) {
					in.originators = append(in.originators, m)
				}
			}
		}
		in.tap = in.obs
		if tr != nil {
			in.tap = &tracedTap{inner: in.obs, tr: tr}
		}
	}
	return topo, nil
}

func (s *soakSim) slots() int { return soakSlots }

func (s *soakSim) warmup() int { return soakSlots }

func (s *soakSim) op(i int) (opResult, error) {
	in := s.inst[i%soakSlots]
	in.obs.Reset(in.corrupted)
	res := in.sn.Run(in.seed, in.originators, in.tap)
	net := in.sn.Net()
	n := s.cfg.n

	r := opResult{
		units: res.Launched, events: res.Steps, msgs: res.Msgs, nodes: n,
		expected: int64(res.Unique) * int64(n), runWall: res.Wall, lat: res.Latency,
		peak: res.Admission.PeakQueueDepth,
		counts: map[string]float64{
			"netem.dropped":              float64(res.Drops),
			"workload.offered":           float64(res.Offered),
			"workload.launched":          float64(res.Launched),
			"_workload.unique":           float64(res.Unique),
			"workload.admission_dropped": float64(res.Admission.Dropped),
		},
	}
	if res.Launched == 0 || res.LaunchErrs > 0 {
		return r, fmt.Errorf("launched %d transactions with %d launch errors", res.Launched, res.LaunchErrs)
	}
	r.delivered = int64(res.Coverage*float64(r.expected) + 0.5)
	for _, p := range in.inner {
		r.counts["relchan.retransmits"] += float64(p.RelRetransmits())
		r.counts["relchan.nacks"] += float64(p.RelNacks())
		r.counts["relchan.handoffs"] += float64(p.RelHandoffs())
		if m := p.Member(); m != nil {
			r.counts["dcnet.retransmits"] += float64(m.Retransmits())
		}
	}

	h := newFingerprint()
	h.add(int64(res.Offered), int64(res.Unique), int64(res.Launched), r.delivered,
		res.Msgs, res.Drops, int64(res.Steps),
		int64(res.P50()), int64(res.P99()),
		res.Admission.Admitted, res.Admission.Deduped, res.Admission.Dropped, int64(r.peak))
	h.typeCounts(net)

	// The §V group attack: a spy inside the originating group narrows
	// the suspects to its honest members; otherwise first-spy, falling
	// back to every honest node when no spy saw the payload.
	t := time.Now()
	var agg adversary.Aggregate
	var sightings int
	for _, l := range res.Launches {
		h.add(int64(l.Seq), int64(l.Node), int64(l.SubmitAt), int64(l.LaunchAt))
		for node, at := range net.Deliveries(l.ID).All() {
			h.add(int64(node), int64(at))
		}
		obs := in.obs.Observations(l.ID)
		sightings += len(obs)
		if suspects, tapped := adversary.GroupSuspects(s.group, in.obs.Corrupted); tapped {
			agg.AddSet(l.Node, suspects)
		} else if sp := adversary.FirstSpy(obs); sp != proto.NoNode {
			agg.AddExact(l.Node, sp)
		} else {
			agg.AddSet(l.Node, in.honest(n))
		}
	}
	r.counts["adversary.estimate_s"] = time.Since(t).Seconds()
	r.counts["adversary.sightings"] = float64(sightings)
	r.spyHits = agg.Precision() * float64(agg.Trials)
	r.spyTrials = agg.Trials
	h.add(int64(math.Float64bits(agg.Precision())))
	r.fp = h.sum()
	return r, nil
}

// honest lists the nodes the adversary does not control.
func (in *soakInstance) honest(n int) []proto.NodeID {
	out := make([]proto.NodeID, 0, n)
	for i := range n {
		if !in.obs.Corrupted(proto.NodeID(i)) {
			out = append(out, proto.NodeID(i))
		}
	}
	return out
}

func (s *soakSim) owners() (int, func(proto.NodeID) int) {
	return 1, func(proto.NodeID) int { return 0 }
}

func (s *soakSim) shards() int { return 1 }

func (s *soakSim) counters() map[string]float64 { return nil }

func (s *soakSim) settle() error { return nil }

func (s *soakSim) verify([]string) error { return nil }

func (s *soakSim) close() { s.inst, s.tr = nil, nil }
