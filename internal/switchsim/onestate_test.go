package switchsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// referenceCircuits are hand-built circuits whose lattice events a random
// walk over a generator circuit reaches only by luck: a precharged K2 bus
// read through pass gates into K1 taps while pulldowns fight it, and K1/K2
// charge sharing through a device that turns on.
func referenceCircuits(p *tech.Params) map[string]*netlist.Network {
	bus := netlist.New("busread", p)
	b := bus.Node("bus")
	bus.AddCap(b, 2*K2CapFloor)
	phi := bus.Node("phi")
	bus.MarkInput(phi)
	bus.AddTrans(tech.NEnh, phi, bus.Vdd(), b, 8*um, 2*um)
	for i := 0; i < 3; i++ {
		d, sel, tap := bus.Node(fmt.Sprint("d", i)), bus.Node(fmt.Sprint("sel", i)), bus.Node(fmt.Sprint("tap", i))
		bus.MarkInput(d)
		bus.MarkInput(sel)
		bus.AddTrans(tech.NEnh, d, b, bus.GND(), 4*um, 2*um)
		bus.AddTrans(tech.NEnh, sel, b, tap, 2*um, 2*um)
	}

	share := netlist.New("share", p)
	big, small, far := share.Node("big"), share.Node("small"), share.Node("far")
	share.AddCap(big, 2*K2CapFloor)
	en, en2 := share.Node("en"), share.Node("en2")
	share.MarkInput(en)
	share.MarkInput(en2)
	share.AddTrans(tech.NEnh, en, big, small, 2*um, 2*um)
	share.AddTrans(tech.NEnh, en2, small, far, 2*um, 2*um)
	return map[string]*netlist.Network{"busread": bus, "share": share}
}

// TestSimMatchesReference is the one-state front's differential test
// against the scalar reference resolver: both start from the same random
// stored state (0, 1 or X on every node but the rails), then take the same
// random walk of drives, releases, stored-value writes and settles, and a
// Resume from the settled state over random seeds. After every step the
// values of every node, Oscillated and Settle's sweep count must agree.
// The corpus is TestConeSettleMatchesPowerOn's generator circuits (in
// internal/core) in nMOS and CMOS, and referenceCircuits.
func TestSimMatchesReference(t *testing.T) {
	corpus := []string{"chip:8", "chip:32", "regfile:8,8", "datapath:8", "shiftreg:8", "manchester:16",
		"alu:8", "barrel:8", "bus:8", "pla:8,16,8", "carrysel:16", "ripple:16", "decoder:6"}
	steps := 12
	if testing.Short() {
		corpus, steps = corpus[:1], 6
	}
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for ci, spec := range corpus {
			t.Run(p.Name+"/"+spec, func(t *testing.T) {
				t.Parallel()
				nw, err := gen.Build(spec, p)
				if err != nil {
					t.Fatal(err)
				}
				walkAgainstReference(t, nw, rand.New(rand.NewSource(int64(ci+1))), steps)
			})
		}
		for name, nw := range referenceCircuits(p) {
			t.Run(p.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				walkAgainstReference(t, nw, rand.New(rand.NewSource(7)), 40)
			})
		}
	}
}

// walkAgainstReference drives a Sim and a reference resolver over nw
// through the same random walk of steps settles, with a Resume halfway,
// and fails at the first step where they disagree.
func walkAgainstReference(t *testing.T, nw *netlist.Network, rng *rand.Rand, steps int) {
	t.Helper()
	s, r := New(nw), newRef(nw)
	inputs := nw.Inputs()
	value := func() Value { return Value(rng.Intn(3)) }
	check := func(step string, sweeps, refSweeps int) {
		t.Helper()
		if sweeps != refSweeps {
			t.Fatalf("%s: Settle took %d sweeps, the reference %d", step, sweeps, refSweeps)
		}
		if s.Oscillated() != r.Oscillated() {
			t.Fatalf("%s: Oscillated() = %v, the reference %v", step, s.Oscillated(), r.Oscillated())
		}
		got, want := s.Snapshot(), r.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s = %s, the reference %s", step, nw.Nodes[i].Name, got[i], want[i])
			}
		}
	}
	both := func(step string, err, refErr error) {
		t.Helper()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: error %v, the reference %v", step, err, refErr)
		}
	}
	for _, n := range nw.Nodes {
		if !n.IsRail() {
			v := value()
			both("stored state", s.SetValue(n, v), r.SetValue(n, v))
		}
	}
	check("first settle", s.Settle(), r.Settle())
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			prev := s.Snapshot()
			seeds := make([]int, 1+rng.Intn(3))
			for i := range seeds {
				seeds[i] = rng.Intn(len(nw.Nodes))
			}
			cone, refCone := s.Resume(prev, seeds), r.Resume(prev, seeds)
			slices.Sort(cone)
			slices.Sort(refCone)
			if !slices.Equal(cone, refCone) {
				t.Logf("Resume(%v): cone of %d nodes, the reference's %d", seeds, len(cone), len(refCone))
			}
			check(fmt.Sprintf("settle after Resume(%v)", seeds), s.Settle(), r.Settle())
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			switch u := rng.Intn(100); {
			case u < 65 && len(inputs) > 0:
				// Drive or release an input.
				n, v := inputs[rng.Intn(len(inputs))], value()
				both("SetInput", s.SetInput(n, v), r.SetInput(n, v))
			default:
				// Overwrite a stored value; a driven node refuses.
				n, v := nw.Nodes[rng.Intn(len(nw.Nodes))], value()
				both("SetValue", s.SetValue(n, v), r.SetValue(n, v))
			}
		}
		check(fmt.Sprintf("step %d", step), s.Settle(), r.Settle())
	}
}
