package stack

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dcnet"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestCodecMatchesTable keeps the codec and the type table complete:
// every registered type has exactly one row, and every row names a
// registered type — otherwise a report can only print an unnamed type
// under phase "other".
func TestCodecMatchesTable(t *testing.T) {
	registered := make(map[proto.MsgType]bool)
	for _, typ := range Codec().Types() {
		registered[typ] = true
	}
	rows := make(map[proto.MsgType]int)
	for i, wt := range WireTypes() {
		rows[wt.Type]++
		if !registered[wt.Type] {
			t.Errorf("row %q (%#04x) is not a registered type", wt.Name, uint16(wt.Type))
		}
		if i > 0 && WireTypes()[i-1].Type >= wt.Type {
			t.Errorf("row %q out of ascending type order", wt.Name)
		}
		if wt.Phase == 0 {
			t.Errorf("row %q has no phase", wt.Name)
		}
	}
	for typ := range registered {
		if rows[typ] != 1 {
			t.Errorf("registered type %#04x has %d table rows, want 1", uint16(typ), rows[typ])
		}
	}
	if got := PhaseOf(proto.RangeEnd); got.String() != "other" || got.Key() != "other" {
		t.Errorf("PhaseOf(unknown) = %q/%q, want other", got.Key(), got)
	}
}

func TestParseProtocolRoundTrip(t *testing.T) {
	for p := Flood; p <= Composed; p++ {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseProtocol("flexnet"); err == nil {
		t.Error("ParseProtocol accepted an unknown name")
	}
	if got := Protocol(9).String(); got != "Protocol(9)" {
		t.Errorf("Protocol(9).String() = %q", got)
	}
}

// TestFactoryRejectsBadSpec pins that configuration errors surface from
// Factory instead of panicking inside a network's SetHandlers.
func TestFactoryRejectsBadSpec(t *testing.T) {
	hashes := core.SimHashes(4)
	for _, tc := range []struct {
		name string
		spec Spec
		want error
	}{
		{"unknown protocol", Spec{Protocol: 9}, nil},
		{"zero protocol", Spec{}, nil},
		{"missing hash", Spec{Protocol: Composed, Group: []proto.NodeID{1, 7}, Hashes: hashes}, core.ErrMissingHash},
		{"group of one", Spec{Protocol: Composed, Group: []proto.NodeID{1}, Hashes: hashes}, dcnet.ErrGroupTooSmall},
	} {
		f, err := tc.spec.Factory()
		if err == nil || f != nil {
			t.Errorf("%s: Factory() = %v, %v; want an error", tc.name, f != nil, err)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFactoryGroupAndNodeWrap checks that only group members get the
// group and that Spec.Node wraps composed handlers in blockchain nodes.
func TestFactoryGroupAndNodeWrap(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Protocol: Composed, Group: []proto.NodeID{0, 2}, Hashes: core.SimHashes(4)}
	f, err := spec.Factory()
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]*core.Protocol, 4)
	net := sim.NewNetwork(g, sim.Options{Seed: 1})
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		handlers[id] = f(id).(*core.Protocol)
		return handlers[id]
	})
	net.Start()
	for id, h := range handlers {
		if member := id%2 == 0; (h.Member() != nil) != member {
			t.Errorf("node %d: DC-net member %v, want %v", id, h.Member() != nil, member)
		}
	}

	var wrapped []proto.NodeID
	spec.Node = func(id proto.NodeID) node.Config {
		wrapped = append(wrapped, id)
		return node.Config{}
	}
	if f, err = spec.Factory(); err != nil {
		t.Fatal(err)
	}
	if h, ok := f(2).(*node.Node); !ok || len(wrapped) != 1 || wrapped[0] != 2 {
		t.Errorf("Node wrap: handler %T, wrapped %v", h, wrapped)
	}
}
