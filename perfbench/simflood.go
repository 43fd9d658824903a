package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/adversary"
	"repro/internal/flood"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// floodParams sizes a simulated dense-flood workload.
type floodParams struct {
	n      int
	shards int
	// netem, when set, shapes every link (hash mode); otherwise links
	// have a constant latency.
	netem   *netem.Profile
	spyFrac float64 // fraction of nodes a tapped Observer corrupts (0: no tap)
	origins int     // distinct originators (slots)
}

// waveConfig: one event loop, constant latency, no taps — same-instant
// cohorts of ~10⁵ events stress the event queue and the flood state.
var waveConfig = floodParams{n: 100_000, shards: 1, origins: 4}

// spyConfig: the same flood at 2 shards through the netem shaper
// (jitter breaks the same-instant ties, loss thins the wave) with a 1%
// spy observer riding the per-shard observation logs.
var spyConfig = floodParams{
	n: 100_000, shards: 2, origins: 4, spyFrac: 0.01,
	netem: &netem.Profile{
		Name:    "loss5-jitter",
		Latency: netem.Const(50 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 20 * time.Millisecond},
		Loss:    0.05,
	},
}

const (
	floodDegree  = 8
	floodLatency = 50 * time.Millisecond
)

type floodSim struct {
	cfg  floodParams
	seed uint64

	g         *topology.Graph
	net       *sim.Network
	shared    *flood.Shared
	handlers  []proto.Handler
	obs       *adversary.Observer
	corrupted []proto.NodeID
	origins   []proto.NodeID
	payload   []byte
}

func newFloodSim(cfg floodParams, seed uint64) *floodSim {
	return &floodSim{cfg: cfg, seed: seed}
}

func (f *floodSim) options(shards int) sim.Options {
	opts := sim.Options{Seed: f.seed, Shards: shards}
	if f.cfg.netem != nil {
		opts.Netem = f.cfg.netem
	} else {
		opts.Latency = sim.ConstLatency(floodLatency)
	}
	return opts
}

func (f *floodSim) setup(tr *tracer) (time.Duration, error) {
	t := time.Now()
	g, err := topology.RandomRegular(f.cfg.n, floodDegree, rand.New(rand.NewPCG(f.seed, 0x746f706f)))
	if err != nil {
		return 0, err
	}
	topo := time.Since(t)
	f.g = g
	f.net = sim.NewNetwork(g, f.options(f.cfg.shards))
	f.shared = flood.NewShared(g.N())
	f.shared.Partition(f.cfg.shards)
	f.handlers = make([]proto.Handler, g.N())
	for i := range f.handlers {
		f.handlers[i] = flood.NewAt(f.shared, proto.NodeID(i))
		if tr != nil {
			f.handlers[i] = tr.wrap(proto.NodeID(i), f.handlers[i])
		}
	}
	rng := rand.New(rand.NewPCG(f.seed, 0x6f726967))
	f.obs, f.corrupted = nil, nil
	if f.cfg.spyFrac > 0 {
		f.corrupted = adversary.SampleCorrupted(g.N(), f.cfg.spyFrac, rng)
		f.obs = adversary.NewObserver(f.corrupted)
		if tr != nil {
			f.net.AddTap(&tracedTap{inner: f.obs, tr: tr})
		} else {
			f.net.AddTap(f.obs)
		}
	}
	f.origins = f.origins[:0]
	for len(f.origins) < f.cfg.origins {
		if id := proto.NodeID(rng.IntN(g.N())); f.obs == nil || !f.obs.Corrupted(id) {
			f.origins = append(f.origins, id)
		}
	}
	f.payload = make([]byte, 16)
	binary.LittleEndian.PutUint64(f.payload, f.seed)
	return topo, nil
}

func (f *floodSim) slots() int { return f.cfg.origins }

func (f *floodSim) warmup() int { return f.slots() }

func (f *floodSim) op(i int) (opResult, error) {
	return f.broadcast(f.net, i%f.cfg.origins)
}

// broadcast runs one full-coverage flood from slot's originator on net.
func (f *floodSim) broadcast(net *sim.Network, slot int) (opResult, error) {
	net.Reset(f.seed)
	f.shared.Reset()
	if f.obs != nil {
		f.obs.Reset(f.corrupted)
	}
	net.SetHandlers(func(id proto.NodeID) proto.Handler { return f.handlers[id] })
	net.Start()
	origin := f.origins[slot]
	binary.LittleEndian.PutUint64(f.payload[8:], uint64(slot))
	t := time.Now()
	id, err := net.Originate(origin, f.payload)
	if err != nil {
		return opResult{}, err
	}
	net.Run(0)
	runWall := time.Since(t)
	if net.ShardCount() != f.cfg.shards && net == f.net {
		return opResult{}, fmt.Errorf("network resolved to %d shards, want %d", net.ShardCount(), f.cfg.shards)
	}

	r := opResult{
		units: 1, events: net.Steps(), msgs: net.TotalMessages(), nodes: f.g.N(),
		expected: int64(f.g.N()), runWall: runWall, lat: new(metrics.LatencySketch),
		counts: map[string]float64{"netem.dropped": float64(net.NetemDropped())},
	}
	h := newFingerprint()
	ds := net.Deliveries(id)
	r.delivered = int64(ds.Count())
	for node, at := range ds.All() {
		r.lat.Add(at)
		h.add(int64(node), int64(at))
	}
	h.add(int64(r.events), r.delivered, net.NetemDropped(), int64(r.lat.Quantile(0.5)), int64(r.lat.Quantile(0.99)))
	h.typeCounts(net)
	// A constant-latency flood reaches every node; under 5% loss an
	// 8-regular flood still reaches all but a handful.
	if short := f.g.N() - int(r.delivered); short > 0 && (f.cfg.netem == nil || short > f.g.N()/100) {
		return r, fmt.Errorf("flood covered %d of %d nodes", r.delivered, f.g.N())
	}
	for _, st := range net.ShardStats() {
		r.counts["sim.shard_windows"] += float64(st.Windows)
		r.counts["sim.shard_stalls"] += float64(st.Stalls)
		r.counts["sim.shard_handoffs"] += float64(st.Handoffs)
	}
	if f.obs != nil {
		t := time.Now()
		sightings := f.obs.Observations(id)
		est := adversary.FirstSpy(sightings)
		r.counts["adversary.estimate_s"] = time.Since(t).Seconds()
		r.counts["adversary.sightings"] = float64(len(sightings))
		r.spyTrials = 1
		if est == origin {
			r.spyHits = 1
		}
		h.add(int64(est), int64(len(sightings)))
	}
	r.fp = h.sum()
	return r, nil
}

func (f *floodSim) owners() (int, func(proto.NodeID) int) {
	n, k := f.cfg.n, f.cfg.shards
	return k, func(id proto.NodeID) int { return topology.ShardOf(id, n, k) }
}

func (f *floodSim) shards() int { return f.cfg.shards }

func (f *floodSim) counters() map[string]float64 { return nil }

func (f *floodSim) settle() error { return nil }

// verify checks the determinism contract from outside: a sharded
// workload's first slot, replayed on a single event loop over the same
// overlay, must reproduce the sharded fingerprint exactly.
func (f *floodSim) verify(ref []string) error {
	if f.cfg.shards <= 1 {
		return nil
	}
	f.net = nil
	one := sim.NewNetwork(f.g, f.options(1))
	if f.obs != nil {
		one.AddTap(f.obs)
	}
	for i, h := range f.handlers {
		if th, ok := h.(*tracedHandler); ok {
			f.handlers[i] = th.inner
		}
	}
	r, err := f.broadcast(one, 0)
	if err != nil {
		return fmt.Errorf("single-loop replay: %w", err)
	}
	if r.fp != ref[0] {
		return fmt.Errorf("single-loop fingerprint %s differs from %d-shard %s", r.fp, f.cfg.shards, ref[0])
	}
	return nil
}

func (f *floodSim) close() {
	f.g, f.net, f.shared, f.handlers, f.obs = nil, nil, nil, nil, nil
}
