package parity

import (
	"strings"
	"testing"
	"time"

	"repro/flexnet"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/stack"
)

// runScenario executes one differential run and fails the test on any
// divergence, printing the full report for diagnosis.
func runScenario(t *testing.T, sc Scenario) *Report {
	t.Helper()
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("parity run failed: %v", err)
	}
	if !rep.OK {
		t.Fatalf("parity divergence:\n%s", rep)
	}
	return rep
}

// TestParityComposed is the headline check: 64 nodes run the full
// three-phase protocol (DC-net group, adaptive diffusion, flood) over
// the in-memory transport, and every per-type message count and byte
// total matches the simulator run with the same seed and topology
// exactly.
func TestParityComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run; skipped with -short")
	}
	rep := runScenario(t, Scenario{
		Protocol:      stack.Composed,
		Transport:     TransportMem,
		N:             64,
		WallTolerance: 60,
	})

	// Shape checks: all three phases actually ran, and Phase-1 cost is
	// the closed-form bounded-round count — g·(g−1) share/S/T exchanges
	// per round over DCRounds rounds.
	g := int64(len(rep.Scenario.Group))
	rounds := int64(rep.Scenario.DCRounds)
	wantDC := rounds * g * (g - 1)
	for _, kind := range []struct {
		name string
		t    proto.MsgType
	}{{"share", dcnet.TypeShare}, {"s-partial", dcnet.TypeSPartial}, {"t-partial", dcnet.TypeTPartial}} {
		if got := rep.Sim.Msgs[kind.t]; got != wantDC {
			t.Errorf("sim dcnet/%s = %d msgs, want %d", kind.name, got, wantDC)
		}
	}
	if rep.Sim.Msgs[flood.TypeData] == 0 {
		t.Error("composed run sent no flood messages (phase 3 never ran)")
	}
	if rep.Sim.Delivered != 64 {
		t.Errorf("sim delivered %d/64", rep.Sim.Delivered)
	}
}

// TestParityComposedTCP runs the same check over real loopback TCP
// sockets at N=16.
func TestParityComposedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run; skipped with -short")
	}
	rep := runScenario(t, Scenario{
		Protocol:      stack.Composed,
		Transport:     TransportTCP,
		N:             16,
		WallTolerance: 60,
	})
	if rep.Real.Delivered != 16 {
		t.Errorf("real delivered %d/16", rep.Real.Delivered)
	}
}

// TestParityFlood checks the plain flood variant on the 8-regular
// overlay: the real cluster must reproduce the 2E−(N−1) total exactly.
func TestParityFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	rep := runScenario(t, Scenario{Protocol: stack.Flood, N: 64, Degree: 8, WallTolerance: 60})
	want := int64(2*64*8/2 - (64 - 1))
	if rep.Real.TotalMsgs != want {
		t.Errorf("flood total = %d msgs, want 2E−(N−1) = %d", rep.Real.TotalMsgs, want)
	}
}

// TestParityAdaptive checks adaptive diffusion alone on a ring: the
// token walk, extend waves and final spread — including the partial
// coverage of the infected ball — must match message for message.
func TestParityAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	rep := runScenario(t, Scenario{Protocol: stack.Adaptive, N: 64, Source: 20, WallTolerance: 60})
	if rep.Sim.Delivered == 0 || rep.Sim.Delivered >= 64 {
		t.Errorf("adaptive ball covered %d/64 nodes; want partial coverage", rep.Sim.Delivered)
	}
}

// TestParityDandelion checks the stem/fluff baseline: stem length is
// random but seed-determined, so the stem and fluff tables must match
// exactly.
func TestParityDandelion(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	rep := runScenario(t, Scenario{Protocol: stack.Dandelion, N: 48, Degree: 8, Source: 7, Seed: 9, WallTolerance: 60})
	if rep.Sim.Msgs[dandelion.TypeStem] == 0 {
		t.Error("dandelion run sent no stem messages")
	}
}

// TestParityShapedMemNet runs the flood parity check over a shaped
// MemNet: non-zero loss plus jitter, the ROADMAP's "parity beyond
// loopback" scenario. Because loss and delay decisions are the same
// hash function of (seed, link, sequence) on both sides, per-type
// counts, bytes and the per-node delivery set stay exactly equal even
// though messages are dying; the delivery-time distributions — the
// quantity that only matches statistically — must agree within the
// declared quantile tolerance.
func TestParityShapedMemNet(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	profile := netem.Profile{
		Name:    "shaped-test",
		Latency: netem.Const(15 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 10 * time.Millisecond},
		Loss:    0.03,
	}
	rep := runScenario(t, Scenario{
		Protocol:      stack.Flood,
		Transport:     TransportMem,
		N:             64,
		Degree:        8,
		Netem:         &profile,
		DistTolerance: 1.0,
		WallTolerance: 60,
	})
	if rep.Sim.NetemDropped == 0 || rep.Real.NetemDropped == 0 {
		t.Errorf("shaped run shed no messages (sim %d, real %d) — loss profile not exercised",
			rep.Sim.NetemDropped, rep.Real.NetemDropped)
	}
	if rep.Dist == nil || rep.Dist.N == 0 {
		t.Fatal("no delivery-time distribution recorded")
	}
	if !rep.DistOK {
		t.Errorf("delivery-time distribution outside tolerance: %s", rep.Dist)
	}
	// At 3% loss on 1024 directed edges some messages must still have
	// died without disconnecting the 8-regular overlay in this seed;
	// coverage equality (sim == real) is already asserted by runScenario.
	if rep.Sim.Delivered == 0 {
		t.Error("shaped flood delivered nothing")
	}
}

// TestShapedScenarioValidation pins the shaped-run guard rails: churn
// profiles and lossy scenarios the harness cannot compare exactly must
// be rejected up front — and any variant with the reliability channel
// mounted, whose retransmissions are a pure function of the seeded
// drops, must not be.
func TestShapedScenarioValidation(t *testing.T) {
	churny := netem.Churny
	if _, err := Run(Scenario{Protocol: stack.Flood, N: 8, Netem: &churny}); err == nil {
		t.Error("churn profile accepted by the parity harness")
	}
	lossy := netem.Lossy
	// The churn carve-out is absolute: Reliable does not legalize it.
	if _, err := Run(Scenario{Protocol: stack.Composed, N: 8, Netem: &churny, Reliable: true}); err == nil {
		t.Error("churn profile accepted with Reliable set (churn is simulator-only)")
	}
	for _, v := range []stack.Protocol{stack.Composed, stack.Adaptive, stack.Dandelion} {
		if _, err := Run(Scenario{Protocol: v, N: 8, Netem: &lossy}); err == nil {
			t.Errorf("lossy %v scenario without the reliability layer accepted (counts are arrival-order dependent)", v)
		}
		ok := Scenario{Protocol: v, N: 8, Netem: &lossy, Reliable: true}
		ok.applyDefaults()
		if err := ok.validate(); err != nil {
			t.Errorf("reliable lossy %v scenario rejected: %v", v, err)
		}
	}
	ok := Scenario{Protocol: stack.Composed, N: 8, Netem: &lossy, Reliable: true}
	ok.applyDefaults()
	if ok.FailSafe <= 0 {
		t.Error("reliable composed scenario defaulted without a fail-safe deadline")
	}
	// FailSafe is a composed-stack knob; defaulting it for the other
	// variants would only widen their settle windows for nothing.
	ad := Scenario{Protocol: stack.Adaptive, N: 8, Netem: &lossy, Reliable: true}
	ad.applyDefaults()
	if ad.FailSafe != 0 {
		t.Errorf("reliable adaptive scenario grew a fail-safe deadline %v (composed-only knob)", ad.FailSafe)
	}
}

// TestParityShapedComposed is the "shaped-parity exactness beyond
// flood" scenario: the full three-phase stack runs over a 5%-loss,
// jittered MemNet with the DC-net reliability layer on — messages die
// inside Phase 1's barrier exchanges and are retransmitted — and every
// per-type message count, byte total, and the per-node delivery set
// still match the simulator exactly, because drops (and therefore
// retransmissions and fail-safe decisions) are the same pure function
// of (seed, link, type, seq) on both sides.
func TestParityShapedComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run; skipped with -short")
	}
	profile := netem.Profile{
		Name:    "shaped-composed-test",
		Latency: netem.Const(10 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 5 * time.Millisecond},
		Loss:    0.05,
	}
	rep := runScenario(t, Scenario{
		Protocol:      stack.Composed,
		Transport:     TransportMem,
		N:             64,
		Netem:         &profile,
		Reliable:      true,
		DCInterval:    300 * time.Millisecond,
		DistTolerance: 1.0,
		WallTolerance: 60,
	})
	if rep.Sim.NetemDropped == 0 || rep.Real.NetemDropped == 0 {
		t.Errorf("shaped composed run shed no messages (sim %d, real %d) — loss profile not exercised",
			rep.Sim.NetemDropped, rep.Real.NetemDropped)
	}
	// The reliability layer must actually have worked: acks flowed, and
	// with ~5% loss across three bounded DC rounds at least one exchange
	// message should have needed a retransmission — visible as the share
	// (or partial) counts exceeding the lossless closed form g·(g−1) per
	// round... or at minimum as a nonzero ack surplus. Assert the layer
	// ran without over-fitting the seed: acks present on both sides and
	// exactly equal (runScenario already failed on any divergence).
	if rep.Sim.Msgs[dcnet.TypeAck] == 0 {
		t.Error("reliable composed run sent no acks — reliability layer inactive")
	}
	g := int64(len(rep.Scenario.Group))
	rounds := int64(rep.Scenario.DCRounds)
	baseline := rounds * g * (g - 1)
	retransmitted := rep.Sim.Msgs[dcnet.TypeShare] + rep.Sim.Msgs[dcnet.TypeSPartial] + rep.Sim.Msgs[dcnet.TypeTPartial] - 3*baseline
	if retransmitted < 0 {
		t.Errorf("dc-net exchange counts below the lossless closed form (%d missing)", -retransmitted)
	}
	if rep.Sim.Delivered == 0 {
		t.Error("shaped composed run delivered nothing")
	}
	if rep.Dist == nil || !rep.DistOK {
		t.Errorf("delivery-time distribution missing or outside tolerance: %v", rep.Dist)
	}
}

// TestParityShapedAdaptive extends shaped-parity exactness to adaptive
// diffusion alone: the token walk and extend waves run over a 5%-loss,
// jittered MemNet with the relchan ack discipline mounted, and every
// per-type count — data, acks, nacks, retransmissions — matches the
// simulator exactly. The round interval is stretched so no k·RTO
// retransmission instant can coincide with a round-timer tick (an
// event-order tie the two runtimes may break differently).
func TestParityShapedAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	profile := netem.Profile{
		Name:    "shaped-adaptive-test",
		Latency: netem.Const(15 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 10 * time.Millisecond},
		Loss:    0.05,
	}
	rep := runScenario(t, Scenario{
		Protocol:      stack.Adaptive,
		Transport:     TransportMem,
		N:             64,
		Source:        20,
		Netem:         &profile,
		Reliable:      true,
		ADInterval:    250 * time.Millisecond,
		WallTolerance: 60,
	})
	if rep.Sim.NetemDropped == 0 || rep.Real.NetemDropped == 0 {
		t.Errorf("shaped adaptive run shed no messages (sim %d, real %d) — loss profile not exercised",
			rep.Sim.NetemDropped, rep.Real.NetemDropped)
	}
	if rep.Sim.Msgs[relchan.TypeAck] == 0 {
		t.Error("reliable adaptive run sent no acks — reliability channel inactive")
	}
	if rep.Sim.Delivered == 0 {
		t.Error("shaped adaptive run delivered nothing")
	}
}

// TestParityShapedDandelion does the same for the stem/fluff baseline:
// a stem hop is the protocol's single point of failure under loss, so
// the mounted channel is what keeps a 5%-loss run both alive and
// exactly comparable — stem retransmissions included.
func TestParityShapedDandelion(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	profile := netem.Profile{
		Name:    "shaped-dandelion-test",
		Latency: netem.Const(15 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 10 * time.Millisecond},
		Loss:    0.05,
	}
	rep := runScenario(t, Scenario{
		Protocol:      stack.Dandelion,
		Transport:     TransportMem,
		N:             48,
		Degree:        8,
		Source:        7,
		Seed:          9,
		Netem:         &profile,
		Reliable:      true,
		WallTolerance: 60,
	})
	if rep.Sim.NetemDropped == 0 || rep.Real.NetemDropped == 0 {
		t.Errorf("shaped dandelion run shed no messages (sim %d, real %d) — loss profile not exercised",
			rep.Sim.NetemDropped, rep.Real.NetemDropped)
	}
	if rep.Sim.Msgs[dandelion.TypeStem] == 0 {
		t.Error("shaped dandelion run sent no stem messages")
	}
	if rep.Sim.Msgs[relchan.TypeAck] == 0 {
		t.Error("reliable dandelion run sent no acks — reliability channel inactive")
	}
	if rep.Sim.Delivered == 0 {
		t.Error("shaped dandelion run delivered nothing")
	}
}

// TestParityDetectsDivergence seeds a fault — a real-side node that
// silently drops every flood relay — and requires the harness to detect
// it and name the phase and message type, rather than time out or
// report success.
func TestParityDetectsDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	rep, err := Run(Scenario{
		Protocol: stack.Flood,
		N:        32,
		Degree:   6,
		Fault:    &Fault{Node: 9, Type: flood.TypeData},
	})
	if err != nil {
		t.Fatalf("faulted run failed to complete: %v", err)
	}
	if rep.OK {
		t.Fatalf("faulted run reported parity OK:\n%s", rep)
	}
	found := false
	for _, d := range rep.Divergences {
		if d.Type == "flood/data" && d.Phase != "" && d.Kind == "messages" {
			found = true
			if d.Real >= d.Sim {
				t.Errorf("dropping relays should lower the real count: sim %d, real %d", d.Sim, d.Real)
			}
		}
	}
	if !found {
		t.Errorf("no flood/data message divergence reported; divergences: %v", rep.Divergences)
	}
	// The muted node never relays, so coverage must also diverge… unless
	// the overlay routed around it; the message-count divergence above is
	// the load-bearing assertion.
}

// TestParityDetectsDivergenceComposed seeds the same fault class into
// the full three-phase stack: the faulted run must still execute to the
// end (DC rounds complete, diffusion runs) and the report must isolate
// the divergence to the flood phase — phases the fault does not touch
// stay exactly equal, so the harness pinpoints drift rather than
// collapsing the whole table.
func TestParityDetectsDivergenceComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	sc := Scenario{
		Protocol: stack.Composed,
		N:        64,
		Fault:    &Fault{Node: 9, Type: flood.TypeData},
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("faulted composed run failed to complete: %v", err)
	}
	if rep.OK {
		t.Fatalf("faulted composed run reported parity OK:\n%s", rep)
	}
	for _, d := range rep.Divergences {
		if d.Phase == "phase 1: dc-net" || d.Phase == "phase 2: adaptive diffusion" {
			t.Errorf("fault on flood relays misattributed to %s / %s (sim %d, real %d)", d.Phase, d.Type, d.Sim, d.Real)
		}
	}
	found := false
	for _, d := range rep.Divergences {
		if d.Type == "flood/data" && d.Kind == "messages" {
			found = true
		}
	}
	if !found {
		t.Errorf("no flood/data divergence reported; divergences: %v", rep.Divergences)
	}
	// The untouched phases must have run to completion and matched.
	if rep.Sim.Msgs[dcnet.TypeShare] == 0 || rep.Sim.Msgs[dcnet.TypeShare] != rep.Real.Msgs[dcnet.TypeShare] {
		t.Errorf("dc-net shares: sim %d, real %d — faulted run did not execute phase 1 to parity",
			rep.Sim.Msgs[dcnet.TypeShare], rep.Real.Msgs[dcnet.TypeShare])
	}
}

// TestScenarioValidation pins the config-honesty checks: a caller-set
// composed source must be kept when valid and rejected when not.
func TestScenarioValidation(t *testing.T) {
	sc := Scenario{Protocol: stack.Composed, N: 64, Source: 16}
	sc.applyDefaults()
	if sc.Source != 16 {
		t.Errorf("caller-set member source overwritten: got %d", sc.Source)
	}
	if err := sc.validate(); err != nil {
		t.Errorf("valid member source rejected: %v", err)
	}
	bad := Scenario{Protocol: stack.Composed, N: 64, Source: 3}
	bad.applyDefaults()
	if err := bad.validate(); err == nil {
		t.Error("non-member composed source accepted")
	}
}

// TestCodecMatchesFlexnet keeps the harness's codec registry in
// lockstep with the public flexnet node codec: a message family added
// to one but not the other would make real-cluster nodes reject frames
// and surface as a baffling transport/codec divergence instead of this
// direct failure.
func TestCodecMatchesFlexnet(t *testing.T) {
	got := stack.Codec().Types()
	want := flexnet.NewCodec().Types()
	if len(got) != len(want) {
		t.Fatalf("parity codec registers %d types, flexnet %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("registry skew at index %d: parity %#04x, flexnet %#04x", i, uint16(got[i]), uint16(want[i]))
		}
	}
}

// TestReportTable exercises the rendering paths.
func TestReportTable(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run; skipped with -short")
	}
	rep := runScenario(t, Scenario{Protocol: stack.Flood, N: 16, Degree: 4, WallTolerance: 60})
	out := rep.String()
	for _, want := range []string{"flood/data", "parity: OK", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("report rendering missing %q:\n%s", want, out)
		}
	}
}
