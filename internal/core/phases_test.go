package core

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// shiftRegPhases builds the canonical two-phase schedule for a shift
// register: phi1 high / phi2 low, then the reverse.
func shiftRegPhases(nw *netlist.Network, dur float64) []Phase {
	phi1 := nw.Lookup("phi1")
	phi2 := nw.Lookup("phi2")
	return []Phase{
		{Name: "phi1", High: []*netlist.Node{phi1}, Low: []*netlist.Node{phi2}, Duration: dur},
		{Name: "phi2", High: []*netlist.Node{phi2}, Low: []*netlist.Node{phi1}, Duration: dur},
	}
}

func TestShiftRegisterFunctionalTwoPhase(t *testing.T) {
	// Sanity-check the generator with the switch-level simulator before
	// timing it: one full two-phase cycle moves a bit through one stage
	// (two inversions = non-inverted).
	p := tech.NMOS4()
	nw, err := gen.ShiftRegister(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := switchsim.New(nw)
	s.SetInputName("in", switchsim.V1)
	// phi1 high: stage 0 samples.
	s.SetInputName("phi1", switchsim.V1)
	s.SetInputName("phi2", switchsim.V0)
	s.Settle()
	// phi2 high: stage 0 transfers.
	s.SetInputName("phi1", switchsim.V0)
	s.SetInputName("phi2", switchsim.V1)
	s.Settle()
	// The bit is now at the stage-0 output; another full cycle brings it
	// to "out".
	s.SetInputName("phi1", switchsim.V1)
	s.SetInputName("phi2", switchsim.V0)
	s.Settle()
	s.SetInputName("phi1", switchsim.V0)
	s.SetInputName("phi2", switchsim.V1)
	s.Settle()
	if got := s.ValueName("out"); got != switchsim.V1 {
		t.Fatalf("bit did not reach out: %v", got)
	}
}

func TestClockedAnalysisShiftRegister(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.ShiftRegister(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ca := &ClockedAnalysis{
		Net:    nw,
		Model:  analyticModel(p, "slope"),
		Phases: shiftRegPhases(nw, 200e-9),
		Fixed:  map[string]switchsim.Value{"in": switchsim.V1},
	}
	results, err := ca.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d phase results", len(results))
	}
	for _, r := range results {
		if !r.Worst.Valid {
			t.Errorf("phase %s: no arrivals", r.Phase.Name)
		}
		if r.Violations != 0 {
			t.Errorf("phase %s: %d violations against a generous duration", r.Phase.Name, r.Violations)
		}
		if r.Worst.T <= 0 || r.Worst.T > 200e-9 {
			t.Errorf("phase %s: worst arrival %g out of range", r.Phase.Name, r.Worst.T)
		}
	}
	var sb strings.Builder
	WritePhaseReport(&sb, results)
	if !strings.Contains(sb.String(), "phi1") || !strings.Contains(sb.String(), "ok") {
		t.Errorf("phase report:\n%s", sb.String())
	}
}

func TestClockedAnalysisDetectsViolations(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.ShiftRegister(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ca := &ClockedAnalysis{
		Net:    nw,
		Model:  analyticModel(p, "slope"),
		Phases: shiftRegPhases(nw, 1e-12), // absurdly short phase
		Fixed:  map[string]switchsim.Value{"in": switchsim.V0},
	}
	results, err := ca.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range results {
		total += r.Violations
	}
	if total == 0 {
		t.Error("1 ps phases should violate")
	}
}

func TestClockedAnalysisErrors(t *testing.T) {
	p := tech.NMOS4()
	nw, _ := gen.ShiftRegister(p, 1)
	ca := &ClockedAnalysis{Net: nw, Model: analyticModel(p, "rc")}
	if _, err := ca.Run(); err == nil {
		t.Error("no phases should fail")
	}
	ca.Phases = shiftRegPhases(nw, 0)
	if _, err := ca.Run(); err == nil {
		t.Error("zero duration should fail")
	}
	// Clock not marked as input.
	nw2, _ := gen.ShiftRegister(p, 1)
	hidden := nw2.Node("hidden_clk")
	ca2 := &ClockedAnalysis{
		Net:   nw2,
		Model: analyticModel(p, "rc"),
		Phases: []Phase{
			{Name: "a", High: []*netlist.Node{hidden}, Duration: 1e-9},
			{Name: "b", Low: []*netlist.Node{hidden}, Duration: 1e-9},
		},
	}
	if _, err := ca2.Run(); err == nil {
		t.Error("unmarked clock should fail")
	}
	// Two unknown pins: the first in name order is named, however Go
	// orders the map.
	nw3, _ := gen.ShiftRegister(p, 2)
	ca3 := &ClockedAnalysis{
		Net:    nw3,
		Model:  analyticModel(p, "rc"),
		Phases: shiftRegPhases(nw3, 1e-9),
		Fixed:  map[string]switchsim.Value{"zz_nope": switchsim.V1, "aa_nope": switchsim.V0},
	}
	for i := 0; i < 20; i++ {
		if _, err := ca3.Run(); err == nil || err.Error() != `fix: no node named "aa_nope"` {
			t.Fatalf("run %d: error %v, want the first unknown pin, aa_nope", i, err)
		}
	}
}

func TestAnalyzerInitialValuesRespected(t *testing.T) {
	// A node seeded with an initial 1 that nothing drives should prune a
	// rise event (it is already high) but allow a fall.
	p := tech.NMOS4()
	nw := netlist.New("init", p)
	in := nw.Node("in")
	nw.MarkInput(in)
	dyn := nw.Node("dyn")
	out := nw.Node("out")
	nw.AddTrans(tech.NEnh, in, dyn, nw.GND(), 0, 0) // pulldown gated by in
	nw.AddTrans(tech.NEnh, dyn, out, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 0, 4*p.MinL)

	a := New(nw, analyticModel(p, "rc"), Options{})
	init := make([]switchsim.Value, len(nw.Nodes))
	for i := range init {
		init[i] = switchsim.VX
	}
	init[dyn.Index] = switchsim.V1
	a.initial = init
	a.SetInputEvent(in, tech.Rise, 0, 0)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Arrival(dyn, tech.Fall).Valid {
		t.Error("dyn should fall when in rises")
	}
	if a.Arrival(dyn, tech.Rise).Valid {
		t.Error("dyn rise should be pruned: it starts high and nothing pulls it up")
	}
}
