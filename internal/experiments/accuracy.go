// Experiments E2–E5: model accuracy against the analog reference.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/stage"
	"repro/internal/tech"
)

// AccuracyRow is one line of an accuracy table: a scenario's analog
// reference delay and each model's prediction.
type AccuracyRow struct {
	Scenario string
	X        float64 // sweep coordinate (chain length, fanout, slope…); 0 for E2
	Analog   float64
	Model    map[string]float64
}

// Err returns the percent error of the named model against the reference.
func (r *AccuracyRow) Err(model string) float64 {
	if r.Analog == 0 {
		return math.Inf(1)
	}
	return (r.Model[model] - r.Analog) / r.Analog * 100
}

// modelNames lists, in fidelity order, the models every accuracy row
// holds: runScenarios prices each row under delay.All.
var modelNames = []string{"lumped", "rc", "slope"}

// runScenarios evaluates scenarios under every model and the reference.
// Scenarios are independent, so they fan out over the worker pool (the
// analog transient is by far the dominant cost per row); within one
// scenario the models run in order, sharing one stage database — the
// enumeration from the first model's run serves the others.
func runScenarios(scs []*Scenario, models []delay.Model) ([]AccuracyRow, error) {
	rows := make([]AccuracyRow, len(scs))
	err := core.RunMany(len(scs), func(i int) error {
		sc := scs[i]
		ref, _, err := sc.AnalogDelay()
		if err != nil {
			return err
		}
		row := AccuracyRow{Scenario: sc.Name, X: sc.X, Analog: ref, Model: map[string]float64{}}
		var db *stage.DB
		for _, m := range models {
			d, _, dbOut, err := sc.modelDelay(m, db)
			if err != nil {
				return err
			}
			db = dbOut
			row.Model[m.Name()] = d
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// E2ModelAccuracy runs the accuracy suite (Table E2): every suite circuit,
// all three models versus the analog reference.
func E2ModelAccuracy(p *tech.Params, tb *delay.Tables) ([]AccuracyRow, error) {
	scs, err := Suite(p)
	if err != nil {
		return nil, err
	}
	return runScenarios(scs, delay.All(tb))
}

// E3PassChains sweeps pass-transistor chain length (Table E3): the
// experiment that motivates the distributed model — lumped grows ~n²,
// distributed ~n²/2, and the reference agrees with the latter. Sweep
// points are built up front so the rows fan out over the worker pool.
func E3PassChains(p *tech.Params, tb *delay.Tables, lengths []int) ([]AccuracyRow, error) {
	if len(lengths) == 0 {
		lengths = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return sweep(tb, lengths, func(n int) (*Scenario, error) { return passScenario(p, n) })
}

// E4Fanout sweeps capacitive fan-out on a single inverter (Figure E4):
// delay is linear in load for every model and the reference.
func E4Fanout(p *tech.Params, tb *delay.Tables, fanouts []int) ([]AccuracyRow, error) {
	if len(fanouts) == 0 {
		fanouts = []int{1, 2, 4, 8, 16}
	}
	return sweep(tb, fanouts, func(f int) (*Scenario, error) {
		return invScenario(p, f, 0, fmt.Sprintf("fanout-%d", f))
	})
}

// E5InputSlope sweeps the input transition time into a fixed inverter
// (Figure E5): only the slope model tracks the reference; lumped and
// distributed are flat by construction.
func E5InputSlope(p *tech.Params, tb *delay.Tables, slopes []float64) ([]AccuracyRow, error) {
	if len(slopes) == 0 {
		slopes = []float64{0.1e-9, 1e-9, 4e-9, 10e-9, 20e-9, 40e-9}
	}
	return sweep(tb, slopes, func(s float64) (*Scenario, error) {
		return invScenario(p, 2, s, fmt.Sprintf("slope-%.3gns", s*1e9))
	})
}

// E9PolyWire sweeps the length of a resistive interconnect wire (the
// Penfield–Rubinstein motivating structure): total wire resistance and
// capacitance scale together with length, modeled as a 10-section ladder.
// Lumped grows quadratically in length; distributed tracks the reference.
func E9PolyWire(p *tech.Params, tb *delay.Tables, lengths []int) ([]AccuracyRow, error) {
	if len(lengths) == 0 {
		lengths = []int{1, 2, 3, 4, 5}
	}
	return sweep(tb, lengths, func(L int) (*Scenario, error) {
		nw, err := gen.PolyWire(p, 10, 20e3*float64(L), 200e-15*float64(L))
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Name:  fmt.Sprintf("wire-%dx", L),
			Net:   nw,
			Input: "in", InTr: tech.Rise,
			Output: "wend", OutTr: tech.Fall,
			// Long RC wires take several hundred ns to precharge.
			Settle: 600e-9,
		}, nil
	})
}

// sweep builds one scenario per sweep point, its X the point, and runs
// them all.
func sweep[T int | float64](tb *delay.Tables, points []T, build func(T) (*Scenario, error)) ([]AccuracyRow, error) {
	scs := make([]*Scenario, len(points))
	for i, x := range points {
		sc, err := build(x)
		if err != nil {
			return nil, err
		}
		sc.X = float64(x)
		scs[i] = sc
	}
	return runScenarios(scs, delay.All(tb))
}

// FormatAccuracy renders accuracy rows as an aligned text table with
// percent errors, the form the paper's accuracy tables take.
func FormatAccuracy(title string, rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(rows) == 0 {
		b.WriteString("(no rows)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s %10s", "circuit", "analog")
	for _, m := range modelNames {
		fmt.Fprintf(&b, " %10s %7s", m, "err%")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9.2fns", r.Scenario, r.Analog*1e9)
		for _, m := range modelNames {
			fmt.Fprintf(&b, " %9.2fns %+6.1f%%", r.Model[m]*1e9, r.Err(m))
		}
		b.WriteString("\n")
	}
	// Summary: mean |error| per model.
	fmt.Fprintf(&b, "%-14s %10s", "mean |err|", "")
	for _, m := range modelNames {
		sum := 0.0
		for _, r := range rows {
			sum += math.Abs(r.Err(m))
		}
		fmt.Fprintf(&b, " %10s %6.1f%%", "", sum/float64(len(rows)))
	}
	b.WriteString("\n")
	return b.String()
}

// CSVAccuracy renders accuracy rows as CSV (one column per model plus the
// sweep coordinate), the machine-readable companion to FormatAccuracy for
// regenerating the figures in a plotting tool.
func CSVAccuracy(rows []AccuracyRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	b.WriteString("scenario,x,analog_s")
	for _, m := range modelNames {
		fmt.Fprintf(&b, ",%s_s,%s_err_pct", m, m)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%g,%g", r.Scenario, r.X, r.Analog)
		for _, m := range modelNames {
			fmt.Fprintf(&b, ",%g,%.2f", r.Model[m], r.Err(m))
		}
		b.WriteString("\n")
	}
	return b.String()
}
