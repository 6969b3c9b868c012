package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/tech"
)

func TestSuiteComposition(t *testing.T) {
	scs, err := Suite(tech.NMOS4())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range scs {
		names = append(names, s.Name)
	}
	want := []string{
		"inv-1x", "inv-fan4", "inv-chain5", "nand2", "nand3", "nor2",
		"superbuffer", "pass3", "pass6", "bus4", "inv-slow-in",
	}
	if len(names) != len(want) {
		t.Fatalf("suite has %d scenarios, want %d: %v", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestScenarioModelVsAnalogInverter(t *testing.T) {
	// One representative scenario end to end: the model and reference
	// must agree within a loose factor (the tight comparisons live in
	// the benchmark harness; this pins the plumbing).
	p := tech.NMOS4()
	sc, err := invScenario(p, 2, 0, "plumbing")
	if err != nil {
		t.Fatal(err)
	}
	ref, slope, err := sc.AnalogDelay()
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 || ref > 100e-9 {
		t.Fatalf("analog delay %g implausible", ref)
	}
	if !(slope > 0) {
		t.Errorf("analog output slope %g should be positive", slope)
	}
	tb := delay.AnalyticTables(p)
	d, outSlope, err := sc.ModelDelay(delay.NewRC(tb))
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || outSlope <= 0 {
		t.Fatalf("model results non-positive: %g %g", d, outSlope)
	}
	if d < ref/4 || d > ref*4 {
		t.Errorf("model %g vs analog %g: off by more than 4×", d, ref)
	}
}

func TestE3ShapesLumpedQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep")
	}
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	rows, err := E3PassChains(p, tb, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lumped must dominate rc everywhere, with the gap growing in n.
	gapPrev := 0.0
	for _, r := range rows {
		l, rc := r.Model["lumped"], r.Model["rc"]
		if l < rc {
			t.Errorf("n=%g: lumped %g < rc %g", r.X, l, rc)
		}
		gap := l / rc
		if gap < gapPrev-0.05 {
			t.Errorf("n=%g: lumped/rc ratio %g decreased (prev %g)", r.X, gap, gapPrev)
		}
		gapPrev = gap
		// Reference should sit below the distributed estimate on chains
		// (the models are pessimistic here).
		if r.Analog > r.Model["rc"]*1.3 {
			t.Errorf("n=%g: analog %g far above rc %g", r.X, r.Analog, r.Model["rc"])
		}
	}
}

func TestE5OnlySlopeResponds(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep")
	}
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	rows, err := E5InputSlope(p, tb, []float64{0.1e-9, 20e-9})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := rows[0], rows[1]
	if fast.Model["rc"] != slow.Model["rc"] {
		t.Error("rc model should be flat in input slope")
	}
	if fast.Model["lumped"] != slow.Model["lumped"] {
		t.Error("lumped model should be flat in input slope")
	}
	if slow.Model["slope"] <= fast.Model["slope"] {
		t.Error("slope model should respond to input slope")
	}
	if slow.Analog <= fast.Analog {
		t.Error("reference should slow down with slow inputs")
	}
}

func TestFormatAccuracy(t *testing.T) {
	rows := []AccuracyRow{{
		Scenario: "x", Analog: 1e-9,
		Model: map[string]float64{"lumped": 2e-9, "rc": 1.5e-9, "slope": 1.1e-9},
	}}
	s := FormatAccuracy("title", rows)
	for _, want := range []string{"title", "lumped", "slope", "+100.0%", "mean |err|"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	if got := rows[0].Err("lumped"); math.Abs(got-100) > 1e-9 {
		t.Errorf("Err = %g", got)
	}
	if !math.IsInf((&AccuracyRow{}).Err("x"), 1) {
		t.Error("zero reference should be Inf")
	}
	if s := FormatAccuracy("empty", nil); !strings.Contains(s, "no rows") {
		t.Error("empty table should say so")
	}
}

func TestCSVAccuracy(t *testing.T) {
	rows := []AccuracyRow{{
		Scenario: "x", X: 3, Analog: 1e-9,
		Model: map[string]float64{"lumped": 2e-9, "rc": 1.5e-9, "slope": 1.1e-9},
	}}
	csv := CSVAccuracy(rows)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "scenario,x,analog_s,lumped_s,lumped_err_pct,rc_s,rc_err_pct,slope_s,slope_err_pct" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "x,3,1e-09,2e-09,100.00") {
		t.Errorf("row = %q", lines[1])
	}
	if CSVAccuracy(nil) != "" {
		t.Error("empty rows should give empty csv")
	}
}

func TestE9WireShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep")
	}
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	rows, err := E9PolyWire(p, tb, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	short, long := rows[0], rows[1]
	if long.Analog <= short.Analog {
		t.Error("longer wire should be slower")
	}
	// The lumped error must grow with length; the distributed must not
	// grow nearly as fast.
	if long.Err("lumped") <= short.Err("lumped") {
		t.Errorf("lumped error should grow with length: %g → %g",
			short.Err("lumped"), long.Err("lumped"))
	}
	// The distributed error grows far slower than the lumped error.
	lumpedGrowth := long.Err("lumped") - short.Err("lumped")
	rcGrowth := long.Err("rc") - short.Err("rc")
	if rcGrowth > lumpedGrowth/1.5 {
		t.Errorf("rc error growth %g should be well below lumped growth %g",
			rcGrowth, lumpedGrowth)
	}
}

func TestStandardBlocksBuild(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		blocks, err := StandardBlocks(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) < 8 {
			t.Fatalf("only %d blocks", len(blocks))
		}
		for _, b := range blocks {
			if b.Net.Name != b.Name {
				t.Errorf("block %s: network named %q", b.Name, b.Net.Name)
			}
			if err := b.Net.Check(); err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
			if b.Net.Stats().Trans == 0 {
				t.Errorf("%s: empty", b.Name)
			}
		}
	}
}

func TestE6SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("analysis sweep")
	}
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	rows, err := E6Throughput(p, tb, "rc")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Stages <= 0 || r.Wall <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Block, r)
		}
		if r.CritArr <= 0 {
			t.Errorf("%s: no critical arrival", r.Block)
		}
	}
	out := FormatThroughput("t", rows)
	if !strings.Contains(out, "alu-8") {
		t.Error("format missing block")
	}
}

func TestE7Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("analysis sweep")
	}
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	rows, err := E7CriticalPaths(p, tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Arrival["lumped"] < r.Arrival["rc"]-1e-12 {
			t.Errorf("%s: lumped %g < rc %g", r.Block, r.Arrival["lumped"], r.Arrival["rc"])
		}
	}
	out := FormatCritical("t", rows)
	if !strings.Contains(out, "manchester-8") {
		t.Error("format missing block")
	}
}

func TestE8BoundsContainment(t *testing.T) {
	rows, err := E8RCBounds(10, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Contained {
			t.Errorf("bounds violated: analog %g outside [%g, %g]", r.Analog, r.Lower, r.Upper)
		}
		if r.Elmore < r.Elmore50 {
			t.Errorf("TDe %g < ln2·TDe %g impossible", r.Elmore, r.Elmore50)
		}
	}
	out := FormatRCBounds("t", rows)
	if !strings.Contains(out, "containment: 8/8") {
		t.Errorf("containment line wrong:\n%s", out)
	}
}

func TestRandomTreeDeterminism(t *testing.T) {
	a := RandomTree(15, 5)
	b := RandomTree(15, 5)
	if a.String() != b.String() {
		t.Error("same seed, different trees")
	}
	c := RandomTree(15, 6)
	if a.String() == c.String() {
		t.Error("different seeds, same tree")
	}
}
