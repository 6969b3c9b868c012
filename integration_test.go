// Integration tests: the full pipeline — .sim parsing, electrical rules,
// functional simulation, worst-case timing, slack reporting — over the
// hand-written netlists in testdata/.
package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/erc"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func load(t *testing.T, name string, p *tech.Params) *netlist.Network {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nw, err := netlist.ReadSim(name, p, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestDLatchEndToEnd(t *testing.T) {
	p := tech.NMOS4()
	nw := load(t, "dlatch.sim", p)

	// Functional: write 1, hold, write 0, hold.
	s := switchsim.New(nw)
	s.SetInputName("d", switchsim.V1)
	s.SetInputName("wr", switchsim.V1)
	s.Settle()
	if got := s.ValueName("out"); got != switchsim.V1 {
		t.Fatalf("latch(write 1): out=%v", got)
	}
	s.SetInputName("wr", switchsim.V0)
	s.SetInputName("d", switchsim.V0)
	s.Settle()
	if got := s.ValueName("out"); got != switchsim.V1 {
		t.Fatalf("latch(hold 1): out=%v", got)
	}
	s.SetInputName("wr", switchsim.V1)
	s.Settle()
	if got := s.ValueName("out"); got != switchsim.V0 {
		t.Fatalf("latch(write 0): out=%v", got)
	}

	// Timing: d transitions with wr held high. The cross-coupled store
	// is feedback, so the analyzer may flag Unbounded; arrivals must
	// still exist and trace to the input.
	a := core.New(nw, delay.NewSlope(delay.AnalyticTables(p)), core.Options{})
	a.SetFixed(nw.Lookup("wr"), switchsim.V1)
	a.SetInputEvent(a.Net.Lookup("d"), tech.Rise, 0, 1e-9)
	a.SetInputEvent(a.Net.Lookup("d"), tech.Fall, 0, 1e-9)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	out := nw.Lookup("out")
	if !a.Arrival(out, tech.Rise).Valid || !a.Arrival(out, tech.Fall).Valid {
		t.Fatal("latch output has no arrivals")
	}
	path := a.Trace(out, tech.Rise)
	if path == nil || path.Hops[0].Node.Name != "d" {
		t.Error("critical path should start at d")
	}
}

func TestMux2CMOSEndToEnd(t *testing.T) {
	p := tech.CMOS3()
	nw := load(t, "mux2-cmos.sim", p)

	s := switchsim.New(nw)
	cases := []struct {
		a, b, sel, want switchsim.Value
	}{
		{switchsim.V1, switchsim.V0, switchsim.V1, switchsim.V1},
		{switchsim.V1, switchsim.V0, switchsim.V0, switchsim.V0},
		{switchsim.V0, switchsim.V1, switchsim.V1, switchsim.V0},
		{switchsim.V0, switchsim.V1, switchsim.V0, switchsim.V1},
	}
	for _, tc := range cases {
		s.SetInputName("a", tc.a)
		s.SetInputName("b", tc.b)
		s.SetInputName("sel", tc.sel)
		s.Settle()
		if got := s.ValueName("y"); got != tc.want {
			t.Errorf("mux(a=%v b=%v sel=%v) = %v, want %v", tc.a, tc.b, tc.sel, got, tc.want)
		}
	}

	// ERC: transmission-gate mux with restored output should be clean of
	// errors (warnings are acceptable).
	for _, f := range erc.Check(nw, erc.Options{}) {
		if f.Severity == erc.Error {
			t.Errorf("unexpected ERC error: %s", f)
		}
	}

	// Timing with slack: data path a→y with sel fixed high.
	a := core.New(nw, delay.NewSlope(delay.AnalyticTables(p)), core.Options{})
	a.SetFixed(nw.Lookup("sel"), switchsim.V1)
	a.SetFixed(nw.Lookup("b"), switchsim.V0)
	a.SetInputEvent(a.Net.Lookup("a"), tech.Rise, 0, 1e-9)
	a.SetInputEvent(a.Net.Lookup("a"), tech.Fall, 0, 1e-9)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ev, _ := a.MaxArrival()
	if !ev.Valid {
		t.Fatal("no arrival")
	}
	slacks := a.Slacks(ev.T + 1e-9)
	if len(slacks) == 0 || slacks[0].Slack < 0 {
		t.Errorf("slack against deadline beyond the critical path should be positive: %+v", slacks)
	}
	var sb strings.Builder
	if v := a.WriteSlackReport(&sb, ev.T/2, 10); v == 0 {
		t.Error("halving the deadline should produce violations")
	}
	if !strings.Contains(sb.String(), "violation") {
		t.Error("slack report missing violations line")
	}
}

func TestDynamicStageEndToEnd(t *testing.T) {
	p := tech.NMOS4()
	nw := load(t, "dynamic-stage.sim", p)

	// Functional: precharge then evaluate.
	s := switchsim.New(nw)
	s.SetInputName("phi", switchsim.V1)
	s.SetInputName("a", switchsim.V0)
	s.SetInputName("b", switchsim.V0)
	s.Settle()
	if got := s.ValueName("dyn"); got != switchsim.V1 {
		t.Fatalf("precharge: dyn=%v", got)
	}
	s.SetInputName("phi", switchsim.V0)
	s.SetInputName("a", switchsim.V1)
	s.SetInputName("b", switchsim.V1)
	s.Settle()
	if got := s.ValueName("dyn"); got != switchsim.V0 {
		t.Fatalf("evaluate: dyn=%v", got)
	}
	if got := s.ValueName("out"); got != switchsim.V1 {
		t.Fatalf("evaluate: out=%v", got)
	}

	// Timing of the evaluate edge: a rises with phi low and b high.
	a := core.New(nw, delay.NewSlope(delay.AnalyticTables(p)), core.Options{})
	a.SetFixed(nw.Lookup("phi"), switchsim.V0)
	a.SetFixed(nw.Lookup("b"), switchsim.V1)
	a.SetInputEvent(a.Net.Lookup("a"), tech.Rise, 0, 1e-9)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	dyn := nw.Lookup("dyn")
	fall := a.Arrival(dyn, tech.Fall)
	if !fall.Valid {
		t.Fatal("dynamic node never discharges (precharge seeding broken)")
	}
	rise := a.Arrival(nw.Lookup("out"), tech.Rise)
	if !rise.Valid || rise.T <= fall.T {
		t.Errorf("output rise %+v should follow dynamic fall at %g", rise, fall.T)
	}

	// ERC knows this node is dynamic: with the big explicit cap the
	// stage should be clean of charge-sharing warnings.
	for _, f := range erc.Check(nw, erc.Options{}) {
		if f.Rule == "charge-sharing" {
			t.Errorf("unexpected charge-sharing finding: %s", f)
		}
	}
}

func TestAllTestdataParses(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sim") {
			continue
		}
		n++
		p := tech.NMOS4()
		if strings.Contains(e.Name(), "cmos") {
			p = tech.CMOS3()
		}
		load(t, e.Name(), p)
	}
	if n < 3 {
		t.Errorf("expected at least 3 testdata netlists, found %d", n)
	}
}
