package core

import (
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func analyticModel(p *tech.Params, name string) delay.Model {
	m, err := delay.ByName(name, delay.AnalyticTables(p))
	if err != nil {
		panic(err)
	}
	return m
}

// runChain analyzes an n-stage inverter chain and returns the worst
// arrival at "out".
func runChain(t *testing.T, p *tech.Params, n int, model string) float64 {
	t.Helper()
	nw, err := gen.InverterChain(p, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := New(nw, analyticModel(p, model), Options{})
	if err := a.SetInputEvent(a.Net.Lookup("in"), tech.Rise, 0, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := a.SetInputEvent(a.Net.Lookup("in"), tech.Fall, 0, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	out := nw.Lookup("out")
	worst := 0.0
	for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
		if ev := a.Arrival(out, tr); ev.Valid && ev.T > worst {
			worst = ev.T
		}
	}
	if worst == 0 {
		t.Fatal("no arrival at chain output")
	}
	return worst
}

func TestInverterChainDelayGrowsLinearly(t *testing.T) {
	p := tech.NMOS4()
	d2 := runChain(t, p, 2, "rc")
	d4 := runChain(t, p, 4, "rc")
	d8 := runChain(t, p, 8, "rc")
	if !(d2 < d4 && d4 < d8) {
		t.Fatalf("chain delays not increasing: %g %g %g", d2, d4, d8)
	}
	// Doubling the chain should roughly double the delay (within 40%:
	// first-stage input slope differs from steady state).
	ratio := d8 / d4
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("8/4 chain delay ratio = %g, want ≈ 2", ratio)
	}
}

func TestChainBothTechnologies(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for _, m := range []string{"lumped", "rc", "slope"} {
			d := runChain(t, p, 4, m)
			if d <= 0 || d > 1e-6 {
				t.Errorf("%s/%s: chain delay %g s out of plausible range", p.Name, m, d)
			}
		}
	}
}

func TestCriticalPathTracesToInput(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.RippleAdder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(nw, analyticModel(p, "slope"), Options{})
	for _, in := range nw.Inputs() {
		a.SetInputEvent(in, tech.Rise, 0, 0)
		a.SetInputEvent(in, tech.Fall, 0, 0)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	paths := a.CriticalPaths(3)
	if len(paths) == 0 {
		t.Fatal("no critical paths found")
	}
	for _, path := range paths {
		first := path.Hops[0]
		if first.Node.Kind != netlist.KindInput {
			t.Errorf("path starts at %s (%v), want an input", first.Node.Name, first.Node.Kind)
		}
		if first.Event.Via != nil {
			t.Error("first hop should be a seeded event")
		}
		// Times must be non-decreasing along the path.
		for i := 1; i < len(path.Hops); i++ {
			if path.Hops[i].Event.T < path.Hops[i-1].Event.T {
				t.Errorf("path time decreases at hop %d", i)
			}
		}
	}
	// The adder's critical path should end at the top sum or carry.
	end := paths[0].End().Node.Name
	if end != "cout" && end != "s3" {
		t.Logf("note: critical endpoint is %s (cout/s3 expected for ripple carry)", end)
	}
}

func TestAdderCriticalPathScalesWithWidth(t *testing.T) {
	p := tech.NMOS4()
	measure := func(w int) float64 {
		nw, err := gen.RippleAdder(p, w)
		if err != nil {
			t.Fatal(err)
		}
		a := New(nw, analyticModel(p, "rc"), Options{})
		for _, in := range nw.Inputs() {
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		ev, _ := a.MaxArrival()
		if !ev.Valid {
			t.Fatal("no arrival")
		}
		return ev.T
	}
	d2, d4, d8 := measure(2), measure(4), measure(8)
	if !(d2 < d4 && d4 < d8) {
		t.Fatalf("ripple delay not increasing with width: %g %g %g", d2, d4, d8)
	}
}

func TestLumpedPessimisticOnPassChain(t *testing.T) {
	p := tech.NMOS4()
	worst := func(model string, n int) float64 {
		nw, err := gen.PassChain(p, n)
		if err != nil {
			t.Fatal(err)
		}
		a := New(nw, analyticModel(p, model), Options{})
		// Control already high; data transitions.
		a.SetFixed(nw.Lookup("ctl"), switchsim.V1)
		a.SetInputEvent(a.Net.Lookup("in"), tech.Rise, 0, 0)
		a.SetInputEvent(a.Net.Lookup("in"), tech.Fall, 0, 0)
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		out := nw.Lookup("out")
		w := 0.0
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if ev := a.Arrival(out, tr); ev.Valid && ev.T > w {
				w = ev.T
			}
		}
		if w == 0 {
			t.Fatalf("no arrival at pass chain output (model %s)", model)
		}
		return w
	}
	for _, n := range []int{4, 8} {
		l := worst("lumped", n)
		r := worst("rc", n)
		if l < r {
			t.Errorf("n=%d: lumped (%g) should be ≥ distributed (%g)", n, l, r)
		}
		// Asymptotically lumped/rc → 2 for a uniform chain; with side
		// loading and end effects expect meaningfully > 1.2 at n=8.
		if n == 8 && l/r < 1.2 {
			t.Errorf("n=8: lumped/rc ratio %g, want > 1.2", l/r)
		}
	}
}

func TestSlopeModelRespondsToInputSlope(t *testing.T) {
	p := tech.NMOS4()
	arrive := func(model string, slope float64) float64 {
		nw, err := gen.FanoutInverter(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		a := New(nw, analyticModel(p, model), Options{})
		a.SetInputEvent(a.Net.Lookup("in"), tech.Rise, 0, slope)
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		ev := a.Arrival(nw.Lookup("out"), tech.Fall)
		if !ev.Valid {
			t.Fatal("no fall arrival at inverter output")
		}
		return ev.T
	}
	fast := arrive("slope", 0.1e-9)
	slow := arrive("slope", 30e-9)
	if slow <= fast {
		t.Errorf("slope model: slow input (%g) should arrive later than fast (%g)", slow, fast)
	}
	rcFast := arrive("rc", 0.1e-9)
	rcSlow := arrive("rc", 30e-9)
	if rcFast != rcSlow {
		t.Errorf("rc model should ignore input slope: %g vs %g", rcFast, rcSlow)
	}
}

func TestPrechargedBusDischarge(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.PrechargedBus(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(nw, analyticModel(p, "slope"), Options{})
	// Data high and stable; enable 0 rises at t=0.
	for i := 0; i < 4; i++ {
		a.SetFixed(nw.Lookup(busName("d", i)), switchsim.V1)
	}
	for i := 1; i < 4; i++ {
		a.SetFixed(nw.Lookup(busName("en", i)), switchsim.V0)
	}
	a.SetInputEvent(a.Net.Lookup("en0"), tech.Rise, 0, 1e-9)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	bus := nw.Lookup("bus")
	fall := a.Arrival(bus, tech.Fall)
	if !fall.Valid {
		t.Fatal("bus never discharges")
	}
	if fall.T <= 0 || fall.T > 1e-6 {
		t.Errorf("bus discharge at %g s, implausible", fall.T)
	}
	// The output inverter should then rise.
	out := a.Arrival(nw.Lookup("out"), tech.Rise)
	if !out.Valid || out.T <= fall.T {
		t.Errorf("out rise %+v should follow bus fall %g", out, fall.T)
	}
}

func busName(p string, i int) string {
	return p + string(rune('0'+i))
}

func TestFixedValuesPruneStages(t *testing.T) {
	// A NAND with one input fixed low can never pull its output low.
	p := tech.NMOS4()
	l := gen.NewLib("nand2", p)
	a1, b1, out := l.NW.Node("a"), l.NW.Node("b"), l.NW.Node("out")
	l.NW.MarkInput(a1)
	l.NW.MarkInput(b1)
	l.NW.MarkOutput(out)
	l.Nand(out, a1, b1)
	an := New(l.NW, analyticModel(p, "rc"), Options{})
	an.SetFixed(b1, switchsim.V0)
	an.SetInputEvent(a1, tech.Rise, 0, 0)
	an.SetInputEvent(a1, tech.Fall, 0, 0)
	if err := an.Run(); err != nil {
		t.Fatal(err)
	}
	if ev := an.Arrival(out, tech.Fall); ev.Valid {
		t.Errorf("output fall should be pruned with b=0, got arrival %g", ev.T)
	}
}

func TestRunErrors(t *testing.T) {
	p := tech.NMOS4()
	nw, _ := gen.InverterChain(p, 2, 0)
	a := New(nw, analyticModel(p, "rc"), Options{})
	if err := a.Run(); err == nil {
		t.Error("Run with no seeded events should fail")
	}
	a2 := New(nw, analyticModel(p, "rc"), Options{})
	for _, c := range []struct {
		d    Directives
		want string
	}{
		{Directives{Rise: []string{"nope"}}, `rise: no node named "nope"`},
		{Directives{Fall: []string{"out"}}, `fall: core: out is not marked as an input`},
		{Directives{Fix: map[string]switchsim.Value{"in": switchsim.VX}}, `fix: in=X: want 0 or 1`},
		{Directives{LoopBreak: []string{"nope"}, Fix: map[string]switchsim.Value{"nada": switchsim.V0}}, `fix: no node named "nada"`},
	} {
		if _, err := c.d.Resolve(nw); err == nil || err.Error() != c.want {
			t.Errorf("%+v: Resolve error %v, want %s", c.d, err, c.want)
		}
		if _, err := c.d.New(nw, a2.Model, Options{}); err == nil || err.Error() != c.want {
			t.Errorf("%+v: New error %v, want %s", c.d, err, c.want)
		}
	}
	if err := a2.SetInputEvent(a2.Net.Lookup("out"), tech.Rise, 0, 0); err == nil {
		t.Error("seeding a non-input should fail")
	}
	a2.SetInputEvent(a2.Net.Lookup("in"), tech.Rise, 0, 0)
	if err := a2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := a2.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

// TestCriticalPathsTopK: CriticalPaths(k) returns exactly the head of the
// full sorted ranking, for every k, and MaxArrival its first entry.
func TestCriticalPathsTopK(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.RippleAdder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(nw, analyticModel(p, "rc"), Options{})
	for _, in := range nw.Inputs() {
		a.SetInputEvent(in, tech.Rise, 0, 0)
		a.SetInputEvent(in, tech.Fall, 0, 0)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	all := a.CriticalPaths(0)
	if len(all) < 8 {
		t.Fatalf("%d ranked endpoints", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].End().Event.T > all[i-1].End().Event.T {
			t.Fatalf("full ranking out of order at %d", i)
		}
	}
	for _, k := range []int{1, 2, 3, 5, len(all) - 1, len(all), len(all) + 4} {
		got := a.CriticalPaths(k)
		want := all[:min(k, len(all))]
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d paths, want %d", k, len(got), len(want))
		}
		for i := range want {
			g, w := got[i].End(), want[i].End()
			if g.Node != w.Node || g.Tr != w.Tr || !sameEvent(g.Event, w.Event) || len(got[i].Hops) != len(want[i].Hops) {
				t.Fatalf("k=%d: path %d ends %s/%s, want %s/%s", k, i, g.Node.Name, g.Tr, w.Node.Name, w.Tr)
			}
		}
	}
	ev, path := a.MaxArrival()
	if w := all[0].End(); path == nil || path.End().Node != w.Node || !sameEvent(ev, w.Event) {
		t.Fatalf("MaxArrival %+v, want %s/%s %+v", ev, w.Node.Name, w.Tr, w.Event)
	}
}

func TestFeedbackGuardFlagsUnbounded(t *testing.T) {
	// An enabled NAND ring oscillator has no worst-case arrival: the
	// analyzer must terminate and report the nodes as unbounded.
	p := tech.NMOS4()
	l := gen.NewLib("ring", p)
	en := l.NW.Node("en")
	l.NW.MarkInput(en)
	r0, r1, r2 := l.NW.Node("r0"), l.NW.Node("r1"), l.NW.Node("r2")
	l.Nand(r0, en, r2)
	l.Inverter(r0, r1, 1)
	l.Inverter(r1, r2, 1)
	a := New(l.NW, analyticModel(p, "rc"), Options{MaxEventsPerNode: 20})
	a.SetInputEvent(en, tech.Rise, 0, 0)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.Unbounded) == 0 {
		t.Error("ring oscillator should hit the feedback guard")
	}
}

func TestLoopBreakDirective(t *testing.T) {
	// The ring oscillator from the guard test, with the loop broken at
	// r1: no unbounded nodes, far fewer stage evaluations, and r1 still
	// has an arrival (recorded, just not propagated).
	p := tech.NMOS4()
	build := func() (*netlist.Network, *netlist.Node) {
		l := gen.NewLib("ring", p)
		en := l.NW.Node("en")
		l.NW.MarkInput(en)
		r0, r1, r2 := l.NW.Node("r0"), l.NW.Node("r1"), l.NW.Node("r2")
		l.Nand(r0, en, r2)
		l.Inverter(r0, r1, 1)
		l.Inverter(r1, r2, 1)
		return l.NW, r1
	}
	nw, r1 := build()
	a := New(nw, analyticModel(p, "rc"), Options{LoopBreak: []*netlist.Node{r1}})
	a.SetInputEvent(a.Net.Lookup("en"), tech.Rise, 0, 0)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.Unbounded) != 0 {
		t.Errorf("broken loop should not hit the guard: %v", a.Unbounded)
	}
	if !a.Arrival(r1, tech.Rise).Valid && !a.Arrival(r1, tech.Fall).Valid {
		t.Error("loop-break node should still record arrivals")
	}
	// And r2 (past the break) must have no arrival from this direction.
	nwB, _ := build()
	b := New(nwB, analyticModel(p, "rc"), Options{MaxEventsPerNode: 20})
	b.SetInputEvent(b.Net.Lookup("en"), tech.Rise, 0, 0)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if a.StagesEvaluated() >= b.StagesEvaluated() {
		t.Errorf("loop break should cut work: %d vs %d stages",
			a.StagesEvaluated(), b.StagesEvaluated())
	}
}

func TestWorstArrivalCoversInternalNodes(t *testing.T) {
	// With outputs marked, MaxArrival is restricted to them while
	// WorstArrival scans everything — on a chain whose last node is not
	// marked, they differ.
	p := tech.NMOS4()
	l := gen.NewLib("tail", p)
	in := l.NW.Node("in")
	l.NW.MarkInput(in)
	mid := l.NW.Node("mid")
	l.NW.MarkOutput(mid)
	tail := l.NW.Node("tail") // unmarked, later than mid
	l.Inverter(in, mid, 1)
	l.Inverter(mid, tail, 1)
	a := New(l.NW, analyticModel(p, "rc"), Options{})
	a.SetInputEvent(in, tech.Rise, 0, 0)
	a.SetInputEvent(in, tech.Fall, 0, 0)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	evOut, _ := a.MaxArrival()
	evAll, path := a.WorstArrival()
	if !evAll.Valid || path == nil {
		t.Fatal("no worst arrival")
	}
	if evAll.T <= evOut.T {
		t.Errorf("WorstArrival %g should exceed output-restricted MaxArrival %g", evAll.T, evOut.T)
	}
	if path.End().Node != tail {
		t.Errorf("worst endpoint = %s, want tail", path.End().Node.Name)
	}
}

func TestPolyWireTiming(t *testing.T) {
	// End-to-end timing across interconnect resistors: arrivals exist at
	// the wire's far end, the lumped model is more pessimistic than the
	// distributed one, and delay grows with wire length.
	p := tech.NMOS4()
	measure := func(model string, scale float64) float64 {
		nw, err := gen.PolyWire(p, 6, 30e3*scale, 300e-15*scale)
		if err != nil {
			t.Fatal(err)
		}
		a := New(nw, analyticModel(p, model), Options{})
		a.SetInputEvent(a.Net.Lookup("in"), tech.Rise, 0, 1e-9)
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		ev := a.Arrival(nw.Lookup("wend"), tech.Fall)
		if !ev.Valid {
			t.Fatalf("no arrival across the wire (model %s)", model)
		}
		return ev.T
	}
	l1, r1 := measure("lumped", 1), measure("rc", 1)
	if l1 <= r1 {
		t.Errorf("lumped %g should exceed rc %g on a wire", l1, r1)
	}
	r2 := measure("rc", 2)
	if r2 <= r1 {
		t.Errorf("doubling the wire should slow it: %g vs %g", r2, r1)
	}
}

func TestReportOutput(t *testing.T) {
	p := tech.CMOS3()
	nw, err := gen.RippleAdder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := New(nw, analyticModel(p, "slope"), Options{})
	for _, in := range nw.Inputs() {
		a.SetInputEvent(in, tech.Rise, 0, 0)
		a.SetInputEvent(in, tech.Fall, 0, 0)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := a.WriteReport(&sb, 2); err != nil {
		t.Fatal(err)
	}
	rep := sb.String()
	for _, want := range []string{"timing report", "path 1:", "(input)"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
