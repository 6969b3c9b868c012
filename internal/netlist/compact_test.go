package netlist

import (
	"testing"

	"repro/internal/tech"
)

func TestPackGateRefRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		idx int
		on1 bool
	}{{0, false}, {0, true}, {1, false}, {12345, true}, {1 << 29, false}} {
		ti, on1 := UnpackGateRef(PackGateRef(tc.idx, tc.on1))
		if ti != tc.idx || on1 != tc.on1 {
			t.Errorf("round trip (%d,%v) = (%d,%v)", tc.idx, tc.on1, ti, on1)
		}
	}
}

// TestCompileMatchesPointerGraph checks the compiled CSR adjacency and
// flag arrays against the pointer graph they flatten: per node, the gated
// non-always-on devices in Gates order with correct polarity, and the
// rail/input/precharge/terminal flags.
func TestCompileMatchesPointerGraph(t *testing.T) {
	p := tech.NMOS4()
	nw := New("compact", p)
	in, mid, out, bus := nw.Node("in"), nw.Node("mid"), nw.Node("out"), nw.Node("bus")
	nw.MarkInput(in)
	bus.Precharged = true
	nw.AddTrans(tech.NEnh, in, mid, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, mid, nw.Vdd(), mid, 0, 4*p.MinL) // always-on load
	nw.AddTrans(tech.NEnh, mid, out, bus, 0, 0).Flow = FlowBA
	nw.AddTrans(tech.NEnh, out, bus, nw.GND(), 0, 0).Flow = FlowOff

	c := Compile(nw)
	for i, tx := range nw.Trans {
		if c.TransA[i] != int32(tx.A.Index) || c.TransB[i] != int32(tx.B.Index) ||
			c.TransType[i] != uint8(tx.Type) || c.TransFlow[i] != uint8(tx.Flow) {
			t.Errorf("device %d: column mismatch", i)
		}
	}
	if got, want := len(c.GateStart), len(nw.Nodes)+1; got != want {
		t.Fatalf("GateStart length %d, want %d", got, want)
	}
	for i, n := range nw.Nodes {
		var want []int32
		for _, tx := range n.Gates {
			if !tx.AlwaysOn() {
				want = append(want, PackGateRef(tx.Index, tx.ConductsOn() == 1))
			}
		}
		got := c.Gates(i)
		if len(got) != len(want) {
			t.Fatalf("node %s: %d gate refs, want %d", n.Name, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("node %s: gate ref %d = %d, want %d", n.Name, j, got[j], want[j])
			}
		}
		// The channel row is Node.Terms in order, each ref naming the far
		// terminal (Trans.Other).
		terms := c.Terms(i)
		if len(terms) != len(n.Terms) {
			t.Fatalf("node %s: %d channel refs, want %d", n.Name, len(terms), len(n.Terms))
		}
		for j, r := range terms {
			ti, otherIsB := UnpackTermRef(r)
			d := nw.Trans[ti]
			far := d.A
			if otherIsB {
				far = d.B
			}
			if d != n.Terms[j] || far != d.Other(n) {
				t.Errorf("node %s: channel ref %d = %d", n.Name, j, r)
			}
		}
		if c.IsRail[i] != n.IsRail() || c.IsInput[i] != (n.Kind == KindInput) ||
			c.Precharged[i] != n.Precharged || c.HasTerms[i] != (len(n.Terms) > 0) {
			t.Errorf("node %s: flag mismatch", n.Name)
		}
	}
	// The always-on depletion load must not appear anywhere in the CSR.
	for _, r := range c.GateRef {
		ti, _ := UnpackGateRef(r)
		if nw.Trans[ti].AlwaysOn() {
			t.Errorf("always-on device %d compiled into gate adjacency", ti)
		}
	}
}
