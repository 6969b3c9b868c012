package charlib

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/stage"
	"repro/internal/tech"
)

// tableSources returns both table sources of technology p: the analytic
// defaults and the committed characterized tables the crystal CLI uses by
// default.
func tableSources(t *testing.T, p *tech.Params) map[string]*delay.Tables {
	t.Helper()
	char, err := Default(p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return map[string]*delay.Tables{"analytic": delay.AnalyticTables(p), "characterized": char}
}

// TestTablesMonotone: every curve of every table source is non-decreasing
// in ratio, so a slower input never makes a stage faster or its output
// sharper.
func TestTablesMonotone(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for src, tb := range tableSources(t, p) {
			for _, d := range tech.Devices() {
				for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
					if tb.RSquare[d][tr] == 0 {
						continue
					}
					c := tb.Curve(d, tr)
					for i := 1; i < len(c.Ratio); i++ {
						if c.RMult[i] < c.RMult[i-1] || c.TFactor[i] < c.TFactor[i-1] {
							t.Errorf("%s %s %s/%s: ratio %g→%g: RMult %g→%g, TFactor %g→%g",
								p.Name, src, d, tr, c.Ratio[i-1], c.Ratio[i],
								c.RMult[i-1], c.RMult[i], c.TFactor[i-1], c.TFactor[i])
						}
					}
				}
			}
		}
	}
}

// TestSlopeSweepMonotone evaluates every turn-on stage of chip:8 under the
// slope model at 121 log-spaced input slopes from 0.1 ps to 100 ns: for
// both table sources and technologies, neither the delay nor the output
// slope may ever fall as the input slows.
func TestSlopeSweepMonotone(t *testing.T) {
	slopes := make([]float64, 121)
	for k := range slopes {
		slopes[k] = 1e-13 * math.Pow(10, float64(k)/20)
	}
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		nw, err := gen.ChipGrid(p, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		db := stage.NewDB(nw, stage.Options{})
		for src, tb := range tableSources(t, p) {
			m := delay.NewSlope(tb)
			stages, bad := 0, 0
			for ti := range nw.Trans {
				sl := db.Through(ti)
				for i := range sl.Stages {
					st := &sl.Stages[i]
					stages++
					prev := m.Evaluate(nw, st, slopes[0])
					for _, in := range slopes[1:] {
						r := m.Evaluate(nw, st, in)
						if r.Delay < prev.Delay || r.Slope < prev.Slope {
							if bad == 0 {
								t.Errorf("%s %s: %s at input slope %g: %+v after %+v",
									p.Name, src, st.Format(nw), in, r, prev)
							}
							bad++
							break
						}
						prev = r
					}
				}
			}
			if bad > 0 {
				t.Errorf("%s %s: %d of %d stages not monotone in input slope", p.Name, src, bad, stages)
			}
			if stages == 0 {
				t.Fatalf("%s: no stages", p.Name)
			}
		}
	}
}
