package delay

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// passNet builds an n-element pass chain from an input and returns the
// stage driving the far end (trigger = first device).
func passStage(n int) (*netlist.Network, *stage.Stage) {
	p := tech.NMOS4()
	nw := netlist.New("chain", p)
	in := nw.Node("in")
	nw.MarkInput(in)
	ctl := nw.Node("ctl")
	nw.MarkInput(ctl)
	prev := in
	for i := 0; i < n; i++ {
		next := nw.Node(string(rune('a' + i)))
		nw.AddTrans(tech.NEnh, ctl, prev, next, 0, 0)
		prev = next
	}
	res := stage.FromNode(nw, in, tech.Rise, stage.Options{})
	return nw, res.Stages[len(res.Stages)-1]
}

func TestCurveInterpolation(t *testing.T) {
	c := Curve{
		Ratio:   []float64{0, 1, 4},
		RMult:   []float64{1, 2, 5},
		TFactor: []float64{2, 3, 6},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ r, want float64 }{
		{0, 1}, {0.5, 1.5}, {1, 2}, {2.5, 3.5}, {4, 5},
		{7, 8}, // extrapolated: slope 1 per unit ratio beyond the end
	}
	for _, tc := range cases {
		if got := c.MultAt(tc.r); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("MultAt(%g) = %g, want %g", tc.r, got, tc.want)
		}
	}
	if got := c.TFactorAt(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("TFactorAt(0.5) = %g", got)
	}
}

func TestCurveFloors(t *testing.T) {
	c := Curve{Ratio: []float64{0, 1}, RMult: []float64{1, -5}, TFactor: []float64{2, -5}}
	if got := c.MultAt(1); got != 0.05 {
		t.Errorf("MultAt should floor at 0.05, got %g", got)
	}
	if got := c.TFactorAt(1); got != 0.1 {
		t.Errorf("TFactorAt should floor at 0.1, got %g", got)
	}
}

func TestCurveValidate(t *testing.T) {
	bad := []Curve{
		{},
		{Ratio: []float64{1, 2}, RMult: []float64{1, 1}, TFactor: []float64{1, 1}},          // no 0
		{Ratio: []float64{0, 0}, RMult: []float64{1, 1}, TFactor: []float64{1, 1}},          // not ascending
		{Ratio: []float64{0, 1}, RMult: []float64{1}, TFactor: []float64{1, 1}},             // length
		{Ratio: []float64{0, 1}, RMult: []float64{1, 0}, TFactor: []float64{1, 1}},          // non-positive
		{Ratio: []float64{0, 1}, RMult: []float64{1, math.NaN()}, TFactor: []float64{1, 1}}, // NaN
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad curve %d accepted", i)
		}
	}
}

func TestAnalyticTablesValidate(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		tb := AnalyticTables(p)
		if err := tb.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if tb.Source != "analytic" {
			t.Error("provenance wrong")
		}
	}
	// nMOS has no p-channel tables.
	tb := AnalyticTables(tech.NMOS4())
	if tb.RSquare[tech.PEnh][tech.Rise] != 0 {
		t.Error("nMOS analytic tables should have no p-channel entries")
	}
}

func TestByName(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	for _, name := range []string{"lumped", "rc", "slope", "rc-bounded", "distributed"} {
		if _, err := ByName(name, tb); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus", tb); err == nil {
		t.Error("unknown model accepted")
	}
	if got := len(All(tb)); got != 3 {
		t.Errorf("All returned %d models", got)
	}
}

func TestLumpedDominatesRCOnChains(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	lumped, rc := NewLumped(tb), NewRC(tb)
	for n := 1; n <= 8; n++ {
		nw, st := passStage(n)
		dl := lumped.Evaluate(nw, st, 0).Delay
		dr := rc.Evaluate(nw, st, 0).Delay
		if dl < dr-1e-15 {
			t.Errorf("n=%d: lumped %g < rc %g", n, dl, dr)
		}
		if n == 1 && math.Abs(dl-dr) > 1e-15 {
			t.Errorf("n=1: lumped and rc must agree on single-element stages (%g vs %g)", dl, dr)
		}
	}
	// Asymptotic ratio approaches 2 on a uniform chain.
	nw, st := passStage(12)
	ratio := lumped.Evaluate(nw, st, 0).Delay / rc.Evaluate(nw, st, 0).Delay
	if ratio < 1.5 || ratio > 2.05 {
		t.Errorf("12-chain lumped/rc = %g, want in (1.5, 2.05)", ratio)
	}
}

func TestSlopeReducesToRCOnStepInput(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	rc, slope := NewRC(tb), NewSlope(tb)
	nw, st := passStage(3)
	dr := rc.Evaluate(nw, st, 0).Delay
	ds := slope.Evaluate(nw, st, 0).Delay
	if math.Abs(dr-ds) > 1e-15 {
		t.Errorf("step input: slope %g should equal rc %g", ds, dr)
	}
}

func TestSlopeMonotoneInInputSlope(t *testing.T) {
	// With monotone tables, slower inputs never make the stage faster.
	tb := AnalyticTables(tech.NMOS4())
	slope := NewSlope(tb)
	nw, st := passStage(2)
	err := quick.Check(func(a, b float64) bool {
		sa := math.Abs(a) * 1e-9
		sb := math.Abs(b) * 1e-9
		if sa > sb {
			sa, sb = sb, sa
		}
		da := slope.Evaluate(nw, st, sa).Delay
		db := slope.Evaluate(nw, st, sb).Delay
		return db >= da-1e-15
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestDelayScalesWithTables(t *testing.T) {
	// Doubling every effective resistance doubles every model's delay.
	p := tech.NMOS4()
	tb := AnalyticTables(p)
	tb2 := AnalyticTables(p)
	for d := range tb2.RSquare {
		for tr := range tb2.RSquare[d] {
			tb2.RSquare[d][tr] *= 2
		}
	}
	nw, st := passStage(3)
	for i, m := range All(tb) {
		m2 := All(tb2)[i]
		d1 := m.Evaluate(nw, st, 0).Delay
		d2 := m2.Evaluate(nw, st, 0).Delay
		if math.Abs(d2-2*d1) > 1e-12*d1 {
			t.Errorf("%s: 2×R gave %g, want %g", m.Name(), d2, 2*d1)
		}
	}
}

func TestFastElmoreMatchesTree(t *testing.T) {
	// The no-allocation path-walk Elmore must agree exactly with the
	// reference RC-tree computation, including side loading and rscale.
	p := tech.NMOS4()
	nw := netlist.New("sidey", p)
	in, ctl := nw.Node("in"), nw.Node("ctl")
	nw.MarkInput(in)
	nw.MarkInput(ctl)
	prev := in
	for i := 0; i < 4; i++ {
		next := nw.Node(string(rune('a' + i)))
		nw.AddTrans(tech.NEnh, ctl, prev, next, 0, 0)
		// Hang a side branch off every other node.
		if i%2 == 0 {
			side := nw.Node(string(rune('w' + i)))
			always := nw.Node(string(rune('m' + i)))
			nw.MarkInput(always)
			nw.AddTrans(tech.NEnh, always, next, side, 0, 0)
			nw.AddCap(side, 30e-15)
		}
		prev = next
	}
	res := stage.FromNode(nw, in, tech.Rise, stage.Options{})
	tb := AnalyticTables(p)
	m := NewRC(tb)
	for _, st := range res.Stages {
		for _, sc := range []struct {
			at   int
			mult float64
		}{{-1, 1}, {0, 2.5}, {len(st.Path()) - 1, 0.4}} {
			rscale := scaleAt(len(st.Path()), sc.at, sc.mult)
			fast := m.elmoreAt(nw, st, sc.at, sc.mult)
			tree, idx := stageTree(tb, nw, st, rscale)
			ref := tree.Elmore(idx[len(idx)-1])
			if math.Abs(fast-ref) > 1e-12*ref+1e-20 {
				t.Errorf("stage %v rscale %v: fast %g vs tree %g", st, rscale, fast, ref)
			}
		}
	}
}

func scaleAt(n, at int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	if at >= 0 && at < n {
		s[at] = v
	}
	return s
}

func TestBoundedModelBounds(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	b := &Bounded{T: tb}
	nw, st := passStage(4)
	lo, hi, err := b.Bounds(nw, st)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= hi) || lo < 0 {
		t.Errorf("bounds [%g, %g] malformed", lo, hi)
	}
	// The Elmore point estimate need not sit inside the 50% bounds, but
	// the interval must bracket ln2·TDe for a chain (single-dominant-pole
	// regime keeps it interior in practice).
	d := b.Evaluate(nw, st, 0).Delay
	if d <= 0 {
		t.Error("point estimate should be positive")
	}
}

func TestResultSlopesPositive(t *testing.T) {
	tb := AnalyticTables(tech.NMOS4())
	nw, st := passStage(3)
	for _, m := range All(tb) {
		r := m.Evaluate(nw, st, 1e-9)
		if r.Delay <= 0 || r.Slope <= 0 {
			t.Errorf("%s: non-positive result %+v", m.Name(), r)
		}
	}
}

// constsNet is a pass chain off an input with a side branch on every other
// node: through-stages of its devices put the driver anywhere from the
// source to n-1 elements past it.
func constsNet(n int) *netlist.Network {
	p := tech.NMOS4()
	nw := netlist.New("consts", p)
	in, ctl := nw.Node("in"), nw.Node("ctl")
	nw.MarkInput(in)
	nw.MarkInput(ctl)
	prev := in
	for i := 0; i < n; i++ {
		next := nw.Node(fmt.Sprintf("c%d", i))
		nw.AddTrans(tech.NEnh, ctl, prev, next, 0, 0)
		if i%2 == 0 {
			side := nw.Node(fmt.Sprintf("s%d", i))
			nw.AddTrans(tech.NDep, side, next, side, 0, 0)
			nw.AddCap(side, 30e-15)
		}
		prev = next
	}
	return nw
}

// TestConstsMatchUncachedWalk pins the inline constants to the walks they
// replace: a stage evaluated from its record's constants and the same stage
// evaluated by the uncached walk agree bit for bit, for every model, at
// every driver depth (past deepDriver, twice the deepest driver of any
// committed circuit) and across input slopes. The uncached arm is reached
// the way an analysis reaches it: the record already holds the constants of
// a different table set, and the slope model walks the stage twice.
func TestConstsMatchUncachedWalk(t *testing.T) {
	const deepDriver = 16
	p := tech.NMOS4()
	nw := constsNet(deepDriver + 4)
	tb := AnalyticTables(p)
	other := AnalyticTables(p)
	other.RSquare[tech.NEnh][tech.Rise] *= 1.5
	other.RSquare[tech.NEnh][tech.Fall] *= 0.75
	if tb.key() == other.key() {
		t.Fatal("different tables share a key")
	}
	if twin := AnalyticTables(p); twin.key() != tb.key() {
		t.Fatal("equal tables have different keys")
	}
	slopes := []float64{0, 1e-12, 3e-10, 1e-9, 4e-8}
	deepest := 0
	for _, trig := range nw.Trans {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			// Two enumerations of the same stages: one keeps tb's constants,
			// the other is claimed by the other tables first.
			cached := stage.Through(nw, trig, tr, stage.Options{}).Stages
			walked := stage.Through(nw, trig, tr, stage.Options{}).Stages
			for i, st := range cached {
				deepest = max(deepest, st.Driver())
				NewRC(other).Evaluate(nw, walked[i], 0)
				if walked[i].Consts(tb.key()) != nil || walked[i].Consts(other.key()) == nil {
					t.Fatal("record does not hold the first evaluator's constants")
				}
				for _, m := range All(tb) {
					for _, in := range slopes {
						first := m.Evaluate(nw, st, in) // computes and keeps, or replays
						again := m.Evaluate(nw, st, in) // replays
						want := m.Evaluate(nw, walked[i], in)
						if first != want || again != want {
							t.Fatalf("%s, %s slope %g: constants %+v then %+v, uncached walk %+v",
								st.Format(nw), m.Name(), in, first, again, want)
						}
					}
				}
				if st.Consts(tb.key()) == nil {
					t.Fatalf("%s: constants not kept", st.Format(nw))
				}
				// A distinct Tables value with the same contents replays them.
				if got, want := NewSlope(AnalyticTables(p)).Evaluate(nw, st, 1e-9), NewSlope(tb).Evaluate(nw, st, 1e-9); got != want {
					t.Fatalf("%s: equal tables disagree: %+v vs %+v", st.Format(nw), got, want)
				}
			}
		}
	}
	if deepest <= deepDriver {
		t.Fatalf("deepest driver %d never passed %d", deepest, deepDriver)
	}
}
