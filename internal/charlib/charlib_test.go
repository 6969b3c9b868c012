package charlib

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/tech"
)

func TestCharacterizeNMOS(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is a long-running analog sweep")
	}
	p := tech.NMOS4()
	tb, err := Characterize(p, Options{Ratios: []float64{0, 1, 4, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Source != "characterized" || tb.Tech != p.Name {
		t.Errorf("provenance: source=%q tech=%q", tb.Source, tb.Tech)
	}
	// Effective resistances should land in the same decade as the
	// rule-of-thumb numbers the technology declares.
	checks := []struct {
		d  tech.Device
		tr tech.Transition
	}{
		{tech.NEnh, tech.Fall},
		{tech.NEnh, tech.Rise},
		{tech.NDep, tech.Rise},
		{tech.NDep, tech.Fall},
	}
	for _, c := range checks {
		got := tb.RSquare[c.d][c.tr]
		want := p.RSquare(c.d, c.tr)
		if got <= 0 {
			t.Errorf("RSquare[%s][%s] = %g, want positive", c.d, c.tr, got)
			continue
		}
		if got < want/6 || got > want*6 {
			t.Errorf("RSquare[%s][%s] = %g Ω/sq, implausibly far from rule-of-thumb %g",
				c.d, c.tr, got, want)
		}
	}
	// No p-channel tables in an nMOS process.
	if tb.RSquare[tech.PEnh][tech.Rise] != 0 {
		t.Error("nMOS process should have no p-channel table")
	}
	// Slow inputs must not make the gate-driven discharge *faster* by
	// more than the threshold-crossing artifact allows; the curve should
	// grow for large ratios on the pulldown.
	c := tb.Curve(tech.NEnh, tech.Fall)
	last := c.RMult[len(c.RMult)-1]
	if last < c.RMult[0] {
		t.Errorf("NEnh fall RMult at max ratio = %g, want >= step value %g", last, c.RMult[0])
	}
	if c.RMult[0] != 1 {
		t.Errorf("step RMult = %g, want 1", c.RMult[0])
	}
}

func TestCharacterizeCMOS(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is a long-running analog sweep")
	}
	p := tech.CMOS3()
	tb, err := Characterize(p, Options{Ratios: []float64{0, 2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if tb.RSquare[tech.PEnh][tech.Rise] <= 0 {
		t.Error("CMOS process must characterize p-channel rise")
	}
	if tb.RSquare[tech.PEnh][tech.Fall] <= 0 {
		t.Error("CMOS process must characterize p-channel fall")
	}
	// The p pullup should be slower per square than the n pulldown
	// (mobility ratio), same ordering as the rule-of-thumb numbers.
	if tb.RSquare[tech.PEnh][tech.Rise] <= tb.RSquare[tech.NEnh][tech.Fall] {
		t.Errorf("p rise (%g) should exceed n fall (%g) per square",
			tb.RSquare[tech.PEnh][tech.Rise], tb.RSquare[tech.NEnh][tech.Fall])
	}
}

// TestDefault: the committed tables are valid characterized tables, handed
// out as one pointer per technology without allocating, and only for the
// built-in parameter sets they were generated from.
func TestDefault(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		tb, err := Default(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := tb.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if tb.Source != "characterized" || tb.Tech != p.Name {
			t.Errorf("%s: provenance: source=%q tech=%q", p.Name, tb.Source, tb.Tech)
		}
		var again *delay.Tables
		allocs := testing.AllocsPerRun(100, func() { again, _ = Default(p) })
		if again != tb {
			t.Errorf("%s: Default returned %p, then %p", p.Name, tb, again)
		}
		if allocs != 0 {
			t.Errorf("%s: Default allocates %v times per call", p.Name, allocs)
		}
	}
	if _, err := Default(&tech.Params{Name: "ge-5u"}); err == nil {
		t.Error("unknown technology: want an error")
	}
	p := tech.NMOS4()
	p.Vdd = 3.3
	if tb, err := Default(p); err == nil {
		t.Errorf("nmos-4u with Vdd %g: got %s tables, want an error", p.Vdd, tb.Source)
	}
}
