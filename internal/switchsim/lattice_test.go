// Metamorphic lattice suite: the strength order Ω > G1 > G2 > K2 > K1 is
// pinned rung by rung on hand-built circuits, and the engine's lattice
// monotonicity — more definite inputs or charges can only produce more
// definite settles, and capacitance matters only through the K2 size
// threshold — is checked on randomized generator circuits.
package switchsim

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

const um = 1e-6

// TestStrengthLadder pins each adjacent rung of the strength order with
// the smallest circuit that makes the two strengths fight.
func TestStrengthLadder(t *testing.T) {
	p := tech.NMOS4()

	t.Run("omega-beats-g1", func(t *testing.T) {
		// A driven input (Ω) against an ON enhancement pulldown (G1).
		nw := netlist.New("ladder", p)
		in := nw.Node("in")
		nw.MarkInput(in)
		nw.AddTrans(tech.NEnh, nw.Vdd(), in, nw.GND(), 8*um, 2*um)
		s := New(nw)
		if err := s.SetInput(in, V1); err != nil {
			t.Fatal(err)
		}
		s.Settle()
		if got := s.Value(in); got != V1 {
			t.Errorf("Ω input vs G1 pulldown: %s, want 1", got)
		}
	})

	t.Run("g1-beats-g2", func(t *testing.T) {
		// The ratioed inverter: enhancement pulldown (G1) wins the fight
		// against the depletion pullup (G2) when the input is high.
		nw := netlist.New("ladder", p)
		in, out := nw.Node("in"), nw.Node("out")
		nw.MarkInput(in)
		nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 2*um, 8*um)
		nw.AddTrans(tech.NEnh, in, out, nw.GND(), 8*um, 2*um)
		s := New(nw)
		if err := s.SetInput(in, V1); err != nil {
			t.Fatal(err)
		}
		s.Settle()
		if got := s.Value(out); got != V0 {
			t.Errorf("G1 pulldown vs G2 pullup: %s, want 0", got)
		}
	})

	t.Run("g2-beats-k2", func(t *testing.T) {
		// A depletion pullup (G2) recharges a high-cap (K2) node whose
		// stored charge says 0: driven beats stored, at any size.
		nw := netlist.New("ladder", p)
		bus := nw.Node("bus")
		nw.AddCap(bus, 2*K2CapFloor)
		nw.AddTrans(tech.NDep, bus, nw.Vdd(), bus, 2*um, 8*um)
		s := New(nw)
		if size := NodeSizes(nw)[bus.Index]; size != SK2 {
			t.Fatalf("bus size = %s, want K2", size)
		}
		if err := s.SetValue(bus, V0); err != nil {
			t.Fatal(err)
		}
		s.Settle()
		if got := s.Value(bus); got != V1 {
			t.Errorf("G2 pullup vs K2 charge: %s, want 1", got)
		}
	})

	t.Run("k2-beats-k1", func(t *testing.T) {
		// Charge sharing through an ON pass device: the high-cap node's
		// charge overwrites the small node's, in both polarities.
		for _, busVal := range []Value{V0, V1} {
			nw := netlist.New("ladder", p)
			en := nw.Node("en")
			nw.MarkInput(en)
			bus, tap := nw.Node("bus"), nw.Node("tap")
			nw.AddCap(bus, 2*K2CapFloor)
			nw.AddTrans(tech.NEnh, en, bus, tap, 2*um, 2*um)
			s := New(nw)
			if sizes := NodeSizes(nw); sizes[bus.Index] != SK2 || sizes[tap.Index] != SK1 {
				t.Fatalf("sizes = %s/%s, want K2/K1", sizes[bus.Index], sizes[tap.Index])
			}
			if err := s.SetValue(bus, busVal); err != nil {
				t.Fatal(err)
			}
			other := V1
			if busVal == V1 {
				other = V0
			}
			if err := s.SetValue(tap, other); err != nil {
				t.Fatal(err)
			}
			if err := s.SetInput(en, V1); err != nil {
				t.Fatal(err)
			}
			s.Settle()
			if got := s.Value(tap); got != busVal {
				t.Errorf("K2 charge %s vs K1 charge %s: tap = %s, want %s",
					busVal, other, got, busVal)
			}
		}
	})

	t.Run("k1-vs-k1-is-x", func(t *testing.T) {
		// The control: equal strengths disagreeing join to X, so the
		// K2-beats-K1 outcome above really is the strength order at work.
		nw := netlist.New("ladder", p)
		en := nw.Node("en")
		nw.MarkInput(en)
		a, b := nw.Node("a"), nw.Node("b")
		nw.AddTrans(tech.NEnh, en, a, b, 2*um, 2*um)
		s := New(nw)
		if err := s.SetValue(a, V1); err != nil {
			t.Fatal(err)
		}
		if err := s.SetValue(b, V0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInput(en, V1); err != nil {
			t.Fatal(err)
		}
		s.Settle()
		if got, got2 := s.Value(a), s.Value(b); got != VX || got2 != VX {
			t.Errorf("K1 vs K1 disagreement: %s/%s, want X/X", got, got2)
		}
	})
}

// TestSizesAndPowerOn covers the size-assignment table and the power-on
// state: rails and inputs are Ω, precharged and high-cap nodes K2,
// everything else K1; a new simulator holds no drives and unknown charge.
func TestSizesAndPowerOn(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("sizes", p)
	in := nw.Node("in")
	nw.MarkInput(in)
	out := nw.Node("out")
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 2*um, 8*um)
	nw.AddTrans(tech.NEnh, in, out, nw.GND(), 8*um, 2*um)
	big := nw.Node("big")
	nw.AddCap(big, 2*K2CapFloor)
	nw.AddTrans(tech.NEnh, in, out, big, 2*um, 2*um)

	sizes := NodeSizes(nw)
	for _, tc := range []struct {
		n    *netlist.Node
		want Strength
	}{
		{nw.Vdd(), SOmega}, {nw.GND(), SOmega}, {in, SOmega},
		{big, SK2}, {out, SK1},
	} {
		if got := sizes[tc.n.Index]; got != tc.want {
			t.Errorf("size(%s) = %s, want %s", tc.n.Name, got, tc.want)
		}
	}
	for i, want := range []string{"-", "K1", "K2", "G2", "G1", "Ω"} {
		if got := Strength(i).String(); got != want {
			t.Errorf("Strength(%d).String() = %q, want %q", i, got, want)
		}
	}

	s := New(nw)
	if err := s.SetInput(in, V1); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	if got := s.Value(out); got != V0 {
		t.Fatalf("driven settle: out = %s, want 0", got)
	}
	s = New(nw)
	if got := s.Value(out); got != VX {
		t.Errorf("at power-on: out = %s, want X (unknown charge)", got)
	}
	if got := s.Value(nw.Vdd()); got != V1 {
		t.Errorf("at power-on: Vdd = %s, want 1", got)
	}
	s.Settle()
	if got := s.Value(out); got != VX {
		t.Errorf("power-on settle with released input: out = %s, want X", got)
	}
}

// settleVector returns one vector's settled values and oscillation flag
// from a fresh Sim, VX symbols left released.
func settleVector(nw *netlist.Network, inputs []*netlist.Node, vec []Value) ([]Value, bool) {
	s := New(nw)
	for i, in := range inputs {
		if vec[i] != VX {
			if err := s.SetInput(in, vec[i]); err != nil {
				panic(err)
			}
		}
	}
	s.Settle()
	return s.Snapshot(), s.Oscillated()
}

// latticeFamilies are the generator circuits the randomized relations run
// over: ratioed static logic, charge-sharing pass chains, a precharged
// bus with K2 storage, and wide decode.
var latticeFamilies = []string{"invchain:4", "passchain:4", "bus:3", "decoder:2"}

// TestMetamorphicXMonotonicity: the settle function is monotone over the
// information order X ⊑ 0, X ⊑ 1. Degrading any subset of a definite
// input vector to X (released) may lose information but never invent it:
// wherever the degraded settle is still definite, it must agree with the
// definite settle.
func TestMetamorphicXMonotonicity(t *testing.T) {
	p := tech.NMOS4()
	rng := rand.New(rand.NewSource(7))
	for _, spec := range latticeFamilies {
		nw, err := gen.Build(spec, p)
		if err != nil {
			t.Fatalf("gen.Build(%q): %v", spec, err)
		}
		inputs := nw.Inputs()
		for trial := 0; trial < 25; trial++ {
			vec := make([]Value, len(inputs))
			for i := range vec {
				vec[i] = FromBool(rng.Intn(2) == 1)
			}
			definite, _ := settleVector(nw, inputs, vec)
			degraded := make([]Value, len(vec))
			copy(degraded, vec)
			for i := range degraded {
				if rng.Intn(3) == 0 {
					degraded[i] = VX
				}
			}
			relaxed, _ := settleVector(nw, inputs, degraded)
			for n := range relaxed {
				if relaxed[n] != VX && relaxed[n] != definite[n] {
					t.Errorf("%s trial %d: node %s = %s under degraded inputs, %s under definite — X-monotonicity violated",
						spec, trial, nw.Nodes[n].Name, relaxed[n], definite[n])
				}
			}
		}
	}
}

// TestMetamorphicChargeMonotonicity applies the same information order to
// stored charge: settling from an unknown (power-on) charge state must
// refine to whatever both definite charge states agree on. For a sampled
// storage node, settle-with-X-charge definite ⇒ both settle-with-0 and
// settle-with-1 produce that same value.
func TestMetamorphicChargeMonotonicity(t *testing.T) {
	p := tech.NMOS4()
	rng := rand.New(rand.NewSource(11))
	for _, spec := range latticeFamilies {
		nw, err := gen.Build(spec, p)
		if err != nil {
			t.Fatalf("gen.Build(%q): %v", spec, err)
		}
		inputs := nw.Inputs()
		var storage []*netlist.Node
		for _, n := range nw.Nodes {
			if !n.IsRail() && n.Kind != netlist.KindInput {
				storage = append(storage, n)
			}
		}
		if len(storage) == 0 {
			t.Fatalf("%s: no storage nodes", spec)
		}
		settle := func(vec []Value, target *netlist.Node, charge Value) []Value {
			s := New(nw)
			if charge != VX {
				if err := s.SetValue(target, charge); err != nil {
					t.Fatal(err)
				}
			}
			for i, in := range inputs {
				if vec[i] != VX {
					if err := s.SetInput(in, vec[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			s.Settle()
			return s.Snapshot()
		}
		for trial := 0; trial < 15; trial++ {
			vec := make([]Value, len(inputs))
			for i := range vec {
				vec[i] = Value(rng.Intn(3)) // V0, V1, VX
			}
			target := storage[rng.Intn(len(storage))]
			unknown := settle(vec, target, VX)
			low := settle(vec, target, V0)
			high := settle(vec, target, V1)
			for n := range unknown {
				if unknown[n] == VX {
					continue
				}
				if low[n] != unknown[n] || high[n] != unknown[n] {
					t.Errorf("%s trial %d: node %s = %s from unknown charge on %s but %s/%s from definite charges",
						spec, trial, nw.Nodes[n].Name, unknown[n], target.Name, low[n], high[n])
				}
			}
		}
	}
}

// TestMetamorphicCapInvariance: capacitance reaches the lattice only
// through the K2 size threshold. Adding capacitance that does not move
// any node across K2CapFloor must leave every settled value, the sweep
// count and the oscillation flag bit-identical — on the scalar and the
// batch engine.
func TestMetamorphicCapInvariance(t *testing.T) {
	p := tech.NMOS4()
	rng := rand.New(rand.NewSource(23))
	for _, spec := range latticeFamilies {
		nw, err := gen.Build(spec, p)
		if err != nil {
			t.Fatalf("gen.Build(%q): %v", spec, err)
		}
		bumped, err := gen.Build(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		// Bump every non-rail node to just under the floor (or leave K2
		// nodes over it): sizes are unchanged by construction.
		want := NodeSizes(nw)
		for _, n := range bumped.Nodes {
			if n.IsRail() || bumped.NodeCap(n) >= K2CapFloor {
				continue
			}
			room := K2CapFloor - bumped.NodeCap(n)
			bumped.AddCap(n, room*0.9)
		}
		if got := NodeSizes(bumped); len(got) != len(want) {
			t.Fatalf("%s: node count changed", spec)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: bump moved node %s across the size threshold (%s → %s)",
						spec, bumped.Nodes[i].Name, want[i], got[i])
				}
			}
		}
		inputs := nw.Inputs()
		vecs := randomVectors(rng, len(inputs), 40)
		base, err := NewBatch(nw).Run(vecs, nil)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := NewBatch(bumped).Run(vecs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Sweeps != moved.Sweeps {
			t.Errorf("%s: sweeps %d → %d under sub-threshold cap bump", spec, base.Sweeps, moved.Sweeps)
		}
		for v := 0; v < base.Vectors; v++ {
			if base.Osc[v] != moved.Osc[v] {
				t.Errorf("%s vector %d: oscillation flag changed", spec, v)
			}
			for n := range base.Out[v] {
				if base.Out[v][n] != moved.Out[v][n] {
					t.Errorf("%s vector %d: node %s = %s → %s under sub-threshold cap bump",
						spec, v, nw.Nodes[n].Name, base.Out[v][n], moved.Out[v][n])
				}
			}
		}
		// Scalar spot-check on the first vector.
		sBase, _ := settleVector(nw, inputs, vecs[:len(inputs)])
		sMoved, _ := settleVector(bumped, bumped.Inputs(), vecs[:len(inputs)])
		for n := range sBase {
			if sBase[n] != sMoved[n] {
				t.Errorf("%s scalar: node %s = %s → %s under sub-threshold cap bump",
					spec, nw.Nodes[n].Name, sBase[n], sMoved[n])
			}
		}
	}
}

// TestMetamorphicStrengthUpgrade: raising a charge fight's loser across
// the K2 threshold flips the X to the upgraded side — strength-order
// monotonicity observed through the cap knob that feeds it.
func TestMetamorphicStrengthUpgrade(t *testing.T) {
	p := tech.NMOS4()
	build := func(busCap float64) (*netlist.Network, *netlist.Node, *netlist.Node, *netlist.Node) {
		nw := netlist.New("upgrade", p)
		en := nw.Node("en")
		nw.MarkInput(en)
		bus, tap := nw.Node("bus"), nw.Node("tap")
		if busCap > 0 {
			nw.AddCap(bus, busCap)
		}
		nw.AddTrans(tech.NEnh, en, bus, tap, 2*um, 2*um)
		return nw, en, bus, tap
	}
	run := func(nw *netlist.Network, en, bus, tap *netlist.Node) Value {
		s := New(nw)
		if err := s.SetValue(bus, V1); err != nil {
			t.Fatal(err)
		}
		if err := s.SetValue(tap, V0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInput(en, V1); err != nil {
			t.Fatal(err)
		}
		s.Settle()
		return s.Value(tap)
	}
	nw, en, bus, tap := build(0)
	if got := run(nw, en, bus, tap); got != VX {
		t.Fatalf("equal-strength charge fight: tap = %s, want X", got)
	}
	nw, en, bus, tap = build(2 * K2CapFloor)
	if got := run(nw, en, bus, tap); got != V1 {
		t.Fatalf("K2-upgraded charge fight: tap = %s, want 1 (bus charge wins)", got)
	}
}
