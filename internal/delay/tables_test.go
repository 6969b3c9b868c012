package delay

import (
	"math"
	"testing"

	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// TestTablesRBoundaries exercises the effective-resistance lookup at the
// geometry edges the verifier can actually be handed: zero or negative
// width (a malformed .sim record — the netlist layer defaults geometry,
// but Tables.R must still behave), zero-ohm-square entries (device types
// a technology does not provide), and extreme aspect ratios.
func TestTablesRBoundaries(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	rsq := tb.RSquare[tech.NEnh][tech.Fall]
	if rsq <= 0 {
		t.Fatalf("NMOS4 must provide NEnh fall resistance, got %g", rsq)
	}
	cases := []struct {
		name string
		d    tech.Device
		tr   tech.Transition
		w, l float64
		want func(r float64) bool
		desc string
	}{
		{"unit square", tech.NEnh, tech.Fall, 1e-6, 1e-6,
			func(r float64) bool { return math.Abs(r-rsq) < 1e-9 }, "R = RSquare"},
		{"double width halves R", tech.NEnh, tech.Fall, 2e-6, 1e-6,
			func(r float64) bool { return math.Abs(r-rsq/2) < 1e-9 }, "R = RSquare/2"},
		{"zero width", tech.NEnh, tech.Fall, 0, 1e-6,
			func(r float64) bool { return math.IsInf(r, 1) }, "+Inf (never silently tiny)"},
		{"zero length", tech.NEnh, tech.Fall, 1e-6, 0,
			func(r float64) bool { return r == 0 }, "0 (ideal short)"},
		{"extreme aspect", tech.NEnh, tech.Fall, 1e-9, 1e-3,
			func(r float64) bool { return r > 0 && !math.IsInf(r, 1) }, "finite positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tb.R(tc.d, tc.tr, tc.w, tc.l); !tc.want(got) {
				t.Errorf("R(%s,%s,%g,%g) = %g, want %s", tc.d, tc.tr, tc.w, tc.l, got, tc.desc)
			}
		})
	}
}

// TestModelsOnSingleElementStage checks every model on the smallest stage
// that exists: one device between a rail and the target (Path length 1).
// Degenerate stages are common — every inverter pulldown is one — and the
// driver detection, Elmore merge, and slope coupling must not assume a
// longer path.
func TestModelsOnSingleElementStage(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("inv", p)
	in := nw.Node("in")
	nw.MarkInput(in)
	out := nw.Node("out")
	nw.AddCap(out, 50e-15)
	pd := nw.AddTrans(tech.NEnh, in, out, nw.GND(), 4e-6, 2e-6)
	res := stage.Through(nw, pd, tech.Fall, stage.Options{})
	if len(res.Stages) == 0 {
		t.Fatal("no stage through the pulldown")
	}
	st := res.Stages[0]
	if len(st.Path()) != 1 {
		t.Fatalf("expected single-element path, got %d", len(st.Path()))
	}
	tb := AnalyticTables(p)
	for _, m := range All(tb) {
		r := m.Evaluate(nw, st, 1e-9)
		if !(r.Delay > 0) || math.IsInf(r.Delay, 0) || math.IsNaN(r.Delay) {
			t.Errorf("%s: delay %g on single-element stage", m.Name(), r.Delay)
		}
		if !(r.Slope > 0) || math.IsInf(r.Slope, 0) || math.IsNaN(r.Slope) {
			t.Errorf("%s: slope %g on single-element stage", m.Name(), r.Slope)
		}
	}
	// On a one-element stage lumped and rc agree exactly: there is only
	// one resistance for all the capacitance, so Elmore IS ΣR·ΣC.
	l := NewLumped(tb).Evaluate(nw, st, 0).Delay
	rc := NewRC(tb).Evaluate(nw, st, 0).Delay
	if math.Abs(l-rc) > 1e-15 {
		t.Errorf("lumped %g != rc %g on single-element stage", l, rc)
	}
}

// TestModelsOnTruncatedEnumeration drives a wide source fan-in through
// tight MaxPaths/MaxDepth bounds, so enumeration reports Truncated, and
// checks that every stage that IS returned still prices finite and
// positive under every model — truncation must degrade coverage, never
// poison the stages that survive.
func TestModelsOnTruncatedEnumeration(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("fanin", p)
	ctl := nw.Node("ctl")
	nw.MarkInput(ctl)
	out := nw.Node("out")
	// Many parallel pulldown branches of depth 3: path count explodes
	// past a tiny MaxPaths, and depth exceeds a tiny MaxDepth.
	for i := 0; i < 6; i++ {
		m1 := nw.Node("m1_" + string(rune('a'+i)))
		m2 := nw.Node("m2_" + string(rune('a'+i)))
		nw.AddTrans(tech.NEnh, ctl, out, m1, 0, 0)
		nw.AddTrans(tech.NEnh, ctl, m1, m2, 0, 0)
		nw.AddTrans(tech.NEnh, ctl, m2, nw.GND(), 0, 0)
	}
	tb := AnalyticTables(p)
	for _, opt := range []stage.Options{
		{MaxPaths: 2},
		{MaxDepth: 2},
		{MaxPaths: 1, MaxDepth: 2},
	} {
		res := stage.Through(nw, nw.Trans[0], tech.Fall, opt)
		if !res.Truncated {
			t.Fatalf("options %+v: expected truncated enumeration", opt)
		}
		for _, st := range res.Stages {
			for _, m := range All(tb) {
				r := m.Evaluate(nw, st, 1e-9)
				if !(r.Delay > 0) || math.IsInf(r.Delay, 0) || math.IsNaN(r.Delay) {
					t.Errorf("options %+v, %s: delay %g on truncated stage", opt, m.Name(), r.Delay)
				}
			}
		}
	}
}

// TestCurveSinglePoint pins interpolation behaviour on a one-sample curve
// (ratio 0 only): every query collapses to the sole sample, including far
// extrapolation, and Validate accepts it.
func TestCurveSinglePoint(t *testing.T) {
	c := Curve{Ratio: []float64{0}, RMult: []float64{1.5}, TFactor: []float64{2.5}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0, 0.5, 1, 100} {
		if m, f := c.At(r); m != 1.5 || f != 2.5 {
			t.Errorf("At(%g) = %g, %g, want 1.5, 2.5", r, m, f)
		}
	}
}

// TestCurveEmpty pins the zero-value Curve: At reads it as the identity
// multiplier, and Validate rejects it.
func TestCurveEmpty(t *testing.T) {
	var c Curve
	if m, _ := c.At(3); m != 1 {
		t.Errorf("empty curve multiplier = %g, want 1", m)
	}
	if err := c.Validate(); err == nil {
		t.Error("empty curve must not validate")
	}
}

// TestTablesValidateBoundaries drives Tables.Validate through the edges:
// a zero RSquare entry means "device/transition absent" and skips curve
// checks; a populated entry with a broken curve must fail.
func TestTablesValidateBoundaries(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	// Absent entry: zero RSquare with a zero-value curve passes.
	tb.RSquare[tech.PEnh][tech.Rise] = 0
	tb.Curves[tech.PEnh][tech.Rise] = Curve{}
	if err := tb.Validate(); err != nil {
		t.Errorf("zero RSquare entry should skip curve validation: %v", err)
	}
	// Populated entry with an empty curve fails.
	tb.RSquare[tech.PEnh][tech.Rise] = 1000
	if err := tb.Validate(); err == nil {
		t.Error("populated entry with empty curve must fail validation")
	}
	// Negative resistance fails outright.
	tb2 := AnalyticTables(tech.NMOS4())
	tb2.RSquare[tech.NEnh][tech.Fall] = -1
	if err := tb2.Validate(); err == nil {
		t.Error("negative RSquare must fail validation")
	}
}
