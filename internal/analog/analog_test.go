package analog

import (
	"math"
	"testing"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// almost asserts |got-want| <= tol.
func almost(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g ± %g", what, got, want, tol)
	}
}

func TestRCStepResponse(t *testing.T) {
	// 1 kΩ into 1 pF: tau = 1 ns. Check 50% and 90% crossing times
	// against the exact single-pole answers.
	c := NewCircuit()
	in, out := c.Node("in"), c.Node("out")
	c.AddVSource(in, 0, Step(0, 1, 0))
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, 0, 1e-12, 0)
	res, err := c.Tran(TranOpts{Stop: 10e-9, Step: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	tau := 1e-9
	t50, err := res.Crossing(out, 0.5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "t50", t50, tau*math.Ln2, tau*0.02)
	t90, err := res.Crossing(out, 0.9, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "t90", t90, tau*math.Log(10), tau*0.02)
	final, err := res.Final(out)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "final", final, 1.0, 1e-3)
}

func TestVoltageDividerDC(t *testing.T) {
	c := NewCircuit()
	top, mid := c.Node("top"), c.Node("mid")
	c.AddVSource(top, 0, DC(5))
	c.AddResistor(top, mid, 2e3)
	c.AddResistor(mid, 0, 3e3)
	res, err := c.Tran(TranOpts{Stop: 1e-9, Step: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Final(mid)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "divider", v, 3.0, 1e-3)
}

func TestLevel1Regions(t *testing.T) {
	// Saturation: vds > vgs - vt.
	id, gm, gds := level1(1e-3, 1, 0, 3, 5)
	almost(t, "sat id", id, 0.5e-3*4, 1e-9)
	almost(t, "sat gm", gm, 1e-3*2, 1e-9)
	almost(t, "sat gds", gds, 0, 1e-12)
	// Triode: vds < vgs - vt.
	id, gm, gds = level1(1e-3, 1, 0, 3, 1)
	almost(t, "triode id", id, 1e-3*(2*1-0.5), 1e-9)
	almost(t, "triode gm", gm, 1e-3*1, 1e-9)
	almost(t, "triode gds", gds, 1e-3*(2-1), 1e-9)
	// Cutoff.
	id, gm, gds = level1(1e-3, 1, 0, 0.5, 5)
	if id != 0 || gm != 0 || gds != 0 {
		t.Errorf("cutoff: got id=%g gm=%g gds=%g, want zeros", id, gm, gds)
	}
}

// nmosInverter builds a depletion-load nMOS inverter driving a load cap.
func nmosInverter(p *tech.Params, load float64, in Waveform) (*Circuit, int, int) {
	c := NewCircuit()
	vdd, nin, nout := c.Node("vdd"), c.Node("in"), c.Node("out")
	c.AddVSource(vdd, 0, DC(p.Vdd))
	c.AddVSource(nin, 0, in)
	// Pulldown: minimum-size enhancement. Pullup: 4:1 depletion load
	// (L = 4×W) with gate tied to source (the output).
	c.AddMOS(tech.NEnh, nout, nin, 0, p.MinW, p.MinL, p)
	c.AddMOS(tech.NDep, vdd, nout, nout, p.MinW, 4*p.MinL, p)
	c.AddCapacitor(nout, 0, load, p.Vdd)
	return c, nin, nout
}

func TestNMOSInverterDC(t *testing.T) {
	p := tech.NMOS4()
	// Input low: output should sit at Vdd (depletion pullup, no
	// threshold loss). Input high: output low, but not zero — ratio
	// logic leaves a residual determined by the beta ratio.
	c, _, out := nmosInverter(p, 50e-15, DC(0))
	res, err := c.Tran(TranOpts{Stop: 200e-9})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Final(out)
	almost(t, "output high", v, p.Vdd, 0.05)

	c, _, out = nmosInverter(p, 50e-15, DC(p.Vdd))
	res, err = c.Tran(TranOpts{Stop: 200e-9})
	if err != nil {
		t.Fatal(err)
	}
	v, _ = res.Final(out)
	if v > 1.0 {
		t.Errorf("output low = %gV, want < 1V (ratioed logic)", v)
	}
	if v < 0 {
		t.Errorf("output low = %gV, want >= 0", v)
	}
}

func TestNMOSInverterTransient(t *testing.T) {
	p := tech.NMOS4()
	load := 100e-15
	c, in, out := nmosInverter(p, load, Step(0, p.Vdd, 5e-9))
	res, err := c.Tran(TranOpts{Stop: 100e-9, Step: 20e-12})
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Delay50(in, out, true, false, 0, p.Vdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity band: a minimum pulldown (~10 kΩ) into 100 fF plus the
	// fight against the load should fall at a few ns.
	if d < 0.2e-9 || d > 20e-9 {
		t.Errorf("fall delay = %g s, want within (0.2ns, 20ns)", d)
	}
}

func TestCMOSInverterTransient(t *testing.T) {
	p := tech.CMOS3()
	c := NewCircuit()
	vdd, in, out := c.Node("vdd"), c.Node("in"), c.Node("out")
	c.AddVSource(vdd, 0, DC(p.Vdd))
	c.AddVSource(in, 0, Step(p.Vdd, 0, 5e-9)) // falling input → rising output
	c.AddMOS(tech.NEnh, out, in, 0, p.MinW, p.MinL, p)
	c.AddMOS(tech.PEnh, out, in, vdd, 2*p.MinW, p.MinL, p)
	c.AddCapacitor(out, 0, 100e-15, 0)
	res, err := c.Tran(TranOpts{Stop: 60e-9, Step: 10e-12})
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Delay50(in, out, false, true, 0, p.Vdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.1e-9 || d > 10e-9 {
		t.Errorf("rise delay = %g s, want within (0.1ns, 10ns)", d)
	}
	// Full-rail output.
	v, _ := res.Final(out)
	almost(t, "CMOS high", v, p.Vdd, 0.05)
}

func TestPassTransistorThresholdDrop(t *testing.T) {
	// An n-channel pass transistor passing a high level loses a
	// threshold: output settles near Vdd - VtN, a physical effect the
	// level-1 model must reproduce (the switch-level simulator models
	// the same effect as a weak-high value).
	p := tech.NMOS4()
	c := NewCircuit()
	src, gate, out := c.Node("src"), c.Node("gate"), c.Node("out")
	c.AddVSource(src, 0, DC(p.Vdd))
	c.AddVSource(gate, 0, DC(p.Vdd))
	c.AddMOS(tech.NEnh, src, gate, out, p.MinW, p.MinL, p)
	c.AddCapacitor(out, 0, 100e-15, 0)
	res, err := c.Tran(TranOpts{Stop: 400e-9})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Final(out)
	if v > p.Vdd-p.VtN+0.2 {
		t.Errorf("pass-high output = %gV, want ≤ Vdd-Vt+0.2 = %gV", v, p.Vdd-p.VtN+0.2)
	}
	if v < p.Vdd-p.VtN-0.5 {
		t.Errorf("pass-high output = %gV, want ≥ %gV", v, p.Vdd-p.VtN-0.5)
	}
}

func TestRampWaveform(t *testing.T) {
	w := Ramp(0, 5, 10e-9, 20e-9)
	almost(t, "before", w(0), 0, 0)
	almost(t, "start", w(10e-9), 0, 1e-12)
	almost(t, "mid", w(20e-9), 2.5, 1e-9)
	almost(t, "end", w(30e-9), 5, 1e-9)
	almost(t, "after", w(50e-9), 5, 0)
}

func TestPWLWaveform(t *testing.T) {
	w := PWL([]float64{0, 1, 3}, []float64{0, 10, 0})
	almost(t, "t=0.5", w(0.5), 5, 1e-12)
	almost(t, "t=2", w(2), 5, 1e-12)
	almost(t, "t=9", w(9), 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("PWL with decreasing times should panic")
		}
	}()
	PWL([]float64{1, 0}, []float64{0, 0})
}

func TestPlot(t *testing.T) {
	c := NewCircuit()
	in, out := c.Node("in"), c.Node("out")
	c.AddVSource(in, 0, Step(0, 1, 1e-9))
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, 0, 1e-12, 0)
	res, err := c.Tran(TranOpts{Stop: 5e-9, Step: 50e-12})
	if err != nil {
		t.Fatal(err)
	}
	plot, err := res.Plot(out, 40, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	runes := []rune(plot)
	if len(runes) != 40 {
		t.Errorf("plot width = %d", len(runes))
	}
	if runes[0] == runes[len(runes)-1] {
		t.Error("a rising waveform should start and end at different levels")
	}
	if _, err := res.Plot(out, 10, 1, 1); err == nil {
		t.Error("bad range should fail")
	}
	if _, err := res.Plot(99, 10, 0, 1); err == nil {
		t.Error("unrecorded node should fail")
	}
}

func TestTranOptionErrors(t *testing.T) {
	c := NewCircuit()
	n := c.Node("a")
	c.AddResistor(n, 0, 1e3)
	if _, err := c.Tran(TranOpts{Stop: 0}); err == nil {
		t.Error("Tran with zero stop time should fail")
	}
}

func TestTrapezoidalBeatsBackwardEulerAtCoarseSteps(t *testing.T) {
	// Same RC step response at a deliberately coarse timestep (tau/10):
	// trapezoidal's second-order accuracy should land markedly closer to
	// the exact 50% crossing than backward Euler.
	build := func() (*Circuit, int) {
		c := NewCircuit()
		in, out := c.Node("in"), c.Node("out")
		c.AddVSource(in, 0, Step(0, 1, 0))
		c.AddResistor(in, out, 1e3)
		c.AddCapacitor(out, 0, 1e-12, 0)
		return c, out
	}
	tau := 1e-9
	exact := tau * math.Ln2
	measure := func(trap bool) float64 {
		c, out := build()
		res, err := c.Tran(TranOpts{Stop: 6e-9, Step: tau / 10, Trapezoidal: trap})
		if err != nil {
			t.Fatal(err)
		}
		t50, err := res.Crossing(out, 0.5, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(t50 - exact)
	}
	errBE := measure(false)
	errTrap := measure(true)
	if errTrap >= errBE {
		t.Errorf("trapezoidal error %g should beat backward Euler %g at coarse steps", errTrap, errBE)
	}
	if errTrap > 0.02*tau {
		t.Errorf("trapezoidal error %g too large at tau/10 steps", errTrap)
	}
}

func TestTrapezoidalMOSInverterAgreesWithBE(t *testing.T) {
	// The two integrators must agree on a MOS delay at fine timesteps.
	p := tech.NMOS4()
	measure := func(trap bool) float64 {
		c, in, out := nmosInverter(p, 100e-15, Step(0, p.Vdd, 5e-9))
		res, err := c.Tran(TranOpts{Stop: 100e-9, Step: 20e-12, Trapezoidal: trap})
		if err != nil {
			t.Fatal(err)
		}
		d, err := res.Delay50(in, out, true, false, 0, p.Vdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	be, tr := measure(false), measure(true)
	if math.Abs(be-tr) > 0.03*be {
		t.Errorf("BE %g and trapezoidal %g disagree by more than 3%%", be, tr)
	}
}

func TestFromNetlistInverter(t *testing.T) {
	// Build an inverter as a switch-level netlist, convert, and check
	// that the analog behaviour matches the directly-constructed one.
	p := tech.NMOS4()
	nw := netlist.New("inv", p)
	in, out := nw.Node("in"), nw.Node("out")
	nw.MarkInput(in)
	nw.AddTrans(tech.NEnh, in, out, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 0, 4*p.MinL)
	nw.AddCap(out, 80e-15)
	// Give the depletion pullup several time constants to establish the
	// high level before the input event.
	c, nmap, err := FromNetlist(nw, []InputDrive{{Node: in, W: Step(0, p.Vdd, 60e-9)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(TranOpts{Stop: 200e-9, Step: 50e-12})
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Delay50(nmap[in.Index], nmap[out.Index], true, false, 0, p.Vdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.2e-9 || d > 20e-9 {
		t.Errorf("converted inverter delay %g implausible", d)
	}
	// Measurement helpers on the same result.
	tt, err := res.TransitionTime(nmap[out.Index], p.Vdd, 0.3, 60e-9)
	if err != nil {
		t.Fatal(err)
	}
	if tt <= 0 {
		t.Errorf("transition time %g", tt)
	}
	v, err := res.At(nmap[out.Index], 59e-9) // settled high just before the event
	if err != nil || v < p.Vdd-1.2 {
		t.Errorf("At(pre-event) = %g, %v", v, err)
	}
}

func TestFromNetlistErrors(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("e", p)
	in := nw.Node("in")
	nw.MarkInput(in)
	if _, _, err := FromNetlist(nw, []InputDrive{{Node: nil}}, nil); err == nil {
		t.Error("nil drive node should fail")
	}
	if _, _, err := FromNetlist(nw, []InputDrive{
		{Node: in, W: DC(0)}, {Node: in, W: DC(1)},
	}, nil); err == nil {
		t.Error("double drive should fail")
	}
}

func TestLinearFastPath(t *testing.T) {
	// A pure RC circuit should take exactly one Newton pass per step.
	c := NewCircuit()
	in, out := c.Node("in"), c.Node("out")
	c.AddVSource(in, 0, Step(0, 1, 0))
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, 0, 1e-12, 0)
	res, err := c.Tran(TranOpts{Stop: 5e-9, Step: 50e-12})
	if err != nil {
		t.Fatal(err)
	}
	// One solve for the initial settle plus one per step.
	if res.NewtonTotal != res.Steps+1 {
		t.Errorf("linear circuit used %d solves for %d steps", res.NewtonTotal, res.Steps)
	}
}

func TestConflictingSourcesSingular(t *testing.T) {
	// Two ideal sources forcing different voltages on the same node make
	// the MNA system inconsistent; the solver must report it rather than
	// return garbage.
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource(n, 0, DC(1))
	c.AddVSource(n, 0, DC(2))
	if _, err := c.Tran(TranOpts{Stop: 1e-9}); err == nil {
		t.Error("conflicting ideal sources should fail")
	}
}

func TestEmptyCircuitFails(t *testing.T) {
	c := NewCircuit()
	if _, err := c.Tran(TranOpts{Stop: 1e-9}); err == nil {
		t.Error("empty circuit should fail")
	}
}

func TestDevicePanicsOnBadValues(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	for name, f := range map[string]func(){
		"zero resistor":     func() { c.AddResistor(a, 0, 0) },
		"negative cap":      func() { c.AddCapacitor(a, 0, -1e-12, 0) },
		"p-channel in nmos": func() { c.AddMOS(tech.PEnh, a, a, 0, 1e-6, 1e-6, tech.NMOS4()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewtonBudgetRespected(t *testing.T) {
	// A hard-switching MOS circuit with an absurdly small Newton budget
	// must fail loudly instead of silently mis-converging.
	p := tech.NMOS4()
	c, _, _ := nmosInverter(p, 100e-15, Step(0, p.Vdd, 1e-9))
	if _, err := c.Tran(TranOpts{Stop: 20e-9, MaxNewton: 1}); err == nil {
		t.Error("MaxNewton=1 should fail to converge")
	}
}

func TestFloatingNodeGmin(t *testing.T) {
	// A node connected only through a cut-off transistor must not make
	// the matrix singular thanks to gmin.
	p := tech.NMOS4()
	c := NewCircuit()
	src, gate, out := c.Node("src"), c.Node("gate"), c.Node("out")
	c.AddVSource(src, 0, DC(5))
	c.AddVSource(gate, 0, DC(0)) // transistor off
	c.AddMOS(tech.NEnh, src, gate, out, p.MinW, p.MinL, p)
	c.AddCapacitor(out, 0, 10e-15, 3.0)
	res, err := c.Tran(TranOpts{Stop: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Final(out)
	// The stored charge should persist (gmin leak is negligible at 10ns).
	almost(t, "held charge", v, 3.0, 0.05)
}
