package stack

import (
	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/group"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Codec returns a codec with every protocol message registered — the
// full wire surface of a node.
func Codec() *wire.Codec {
	c := wire.NewCodec()
	flood.RegisterMessages(c)
	adaptive.RegisterMessages(c)
	dcnet.RegisterMessages(c)
	dandelion.RegisterMessages(c)
	relchan.RegisterMessages(c)
	group.RegisterMessages(c)
	node.RegisterMessages(c)
	workload.RegisterMessages(c)
	return c
}

// Phase is the protocol layer a message type belongs to. The zero
// Phase is the layer of a type outside the table.
type Phase uint8

// Phases, in table order.
const (
	PhaseDCNet Phase = iota + 1
	PhaseAdaptive
	PhaseFlood
	PhaseStem
	PhaseGroup
	PhaseChain
	PhaseRelChan
	PhaseWorkload
)

var phaseNames = [...]struct{ key, title string }{
	{"other", "other"},
	PhaseDCNet:    {"dcnet", "phase 1: dc-net"},
	PhaseAdaptive: {"adaptive", "phase 2: adaptive diffusion"},
	PhaseFlood:    {"flood", "phase 3: flood-and-prune"},
	PhaseStem:     {"stem", "dandelion stem"},
	PhaseGroup:    {"group", "group membership"},
	PhaseChain:    {"chain", "blockchain"},
	PhaseRelChan:  {"relchan", "reliable channel"},
	PhaseWorkload: {"workload", "workload ingress"},
}

// Key returns the phase's short name, the key of a per-phase count.
func (p Phase) Key() string { return phaseNames[p].key }

// String returns the phase's table display name.
func (p Phase) String() string { return phaseNames[p].title }

// WireType names one protocol message type for table rendering.
type WireType struct {
	Type  proto.MsgType
	Name  string
	Phase Phase
}

// wireTypes is the canonical index, ascending by type; it has one row
// per type Codec registers.
var wireTypes = []WireType{
	{flood.TypeData, "flood/data", PhaseFlood},
	{adaptive.TypeInfect, "adaptive/infect", PhaseAdaptive},
	{adaptive.TypeExtend, "adaptive/extend", PhaseAdaptive},
	{adaptive.TypeToken, "adaptive/token", PhaseAdaptive},
	{adaptive.TypeFinal, "adaptive/final", PhaseAdaptive},
	{dcnet.TypeShare, "dcnet/share", PhaseDCNet},
	{dcnet.TypeSPartial, "dcnet/s-partial", PhaseDCNet},
	{dcnet.TypeTPartial, "dcnet/t-partial", PhaseDCNet},
	{dcnet.TypeCommit, "dcnet/commit", PhaseDCNet},
	{dcnet.TypeReveal, "dcnet/reveal", PhaseDCNet},
	{dcnet.TypeAck, "dcnet/ack", PhaseDCNet},
	{dcnet.TypeNack, "dcnet/nack", PhaseDCNet},
	{dandelion.TypeStem, "dandelion/stem", PhaseStem},
	{group.TypeJoinReq, "group/join-req", PhaseGroup},
	{group.TypeLeaveReq, "group/leave-req", PhaseGroup},
	{group.TypeViewUpdate, "group/view-update", PhaseGroup},
	{group.TypeViewAck, "group/view-ack", PhaseGroup},
	{group.TypeViewCommit, "group/view-commit", PhaseGroup},
	{group.TypeEvictNotice, "group/evict-notice", PhaseGroup},
	{node.TypeBlock, "chain/block", PhaseChain},
	{relchan.TypeAck, "relchan/ack", PhaseRelChan},
	{relchan.TypeNack, "relchan/nack", PhaseRelChan},
	{relchan.TypeCustody, "relchan/custody", PhaseRelChan},
	{workload.TypeSubmit, "workload/submit", PhaseWorkload},
}

// WireTypes returns the canonical message-type index in ascending type
// order. The slice is shared; callers must not mutate it.
func WireTypes() []WireType { return wireTypes }

// PhaseOf returns the phase of a message type (zero outside the table).
func PhaseOf(t proto.MsgType) Phase {
	for _, wt := range wireTypes {
		if wt.Type == t {
			return wt.Phase
		}
	}
	return 0
}
