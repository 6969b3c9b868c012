package core

import (
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// conformanceSpecs sweeps every registered generator family at a small
// size. The sizes keep the full sweep (five engines per family) fast
// while still exercising each family's characteristic structure.
var conformanceSpecs = []string{
	"invchain:8", "fanout:6", "passchain:6", "superbuffer", "bus:4",
	"ripple:4", "manchester:4", "barrel:4", "decoder:3", "alu:4",
	"regfile:4,4", "polywire:6", "chip:4", "datapath:4", "shiftreg:4",
	"arraymul:4", "carrysel:8", "pla:4,6,4",
}

// conformanceDirectives returns the analysis directives a family needs;
// only the chip composition requires any (fixed address bits and
// register-cell loop breaks).
func conformanceDirectives(spec string) (map[string]string, []string) {
	if strings.HasPrefix(spec, "chip") {
		return gen.ChipDirectives(4)
	}
	return nil, nil
}

// TestConformance is the cross-engine agreement sweep: every circuit
// family in the generator registry is pushed through each analysis
// engine, and the engines must agree.
//
//   - Shared database (the "workers" arm; the name dates from a removed
//     worker-count option and is kept because the suite is tracked by
//     name): a second run handed the first run's stage database adopts it
//     and is bit-identical to the first (arrivals, slopes, Via provenance
//     pointers, feedback-guard verdicts, evaluation counts).
//   - Incremental engine: Reanalyze after a no-op edit reproduces the
//     full run's arrivals exactly.
//   - Delay-model pessimism: per endpoint, lumped ≥ rc and slope ≥ rc —
//     both bounding models dominate the distributed-RC baseline — on
//     every node the feedback guard resolved exactly. (Guard-limited
//     nodes are exempt: event-list truncation is per-model, so dominance
//     is not meaningful there.) All three models agree on *which*
//     node/transition pairs are reachable.
//   - switchsim: every transition the switch-level simulator observes
//     under the all-inputs 0→1 vector is covered by a valid worst-case
//     arrival — the timing analysis never misses a real transition, the
//     sense in which it is pessimistic relative to simulation.
func TestConformance(t *testing.T) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	for _, spec := range conformanceSpecs {
		spec := spec
		t.Run(strings.ReplaceAll(spec, ":", "-"), func(t *testing.T) {
			t.Parallel()
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			fix, lb := conformanceDirectives(spec)

			slope := buildAnalyzer(t, nw, delay.NewSlope(tb), fix, lb, Options{})
			if err := slope.Run(); err != nil {
				t.Fatal(err)
			}

			t.Run("workers", func(t *testing.T) {
				shared := buildAnalyzer(t, nw, delay.NewSlope(tb), fix, lb, Options{DB: slope.StageDB()})
				if err := shared.Run(); err != nil {
					t.Fatal(err)
				}
				if shared.StageDB() != slope.StageDB() {
					t.Fatal("second run built its own stage database instead of adopting the first run's")
				}
				requireIdentical(t, "shared database", slope, shared, true)
			})
			t.Run("reanalyze-noop", func(t *testing.T) {
				conformanceNoopReanalyze(t, nw, tb, fix, lb, slope)
			})
			t.Run("pessimism", func(t *testing.T) {
				conformancePessimism(t, nw, tb, fix, lb, slope)
			})
			t.Run("switchsim", func(t *testing.T) {
				conformanceVector(t, nw, fix, slope)
			})
		})
	}
}

// conformanceNoopReanalyze runs the incremental engine over an edit that
// does not change the network (a zero capacitance increment) and requires
// the re-analysis to land exactly on the full run's arrivals — whether it
// took the incremental path or honestly fell back to a full drain (it
// must on circuits whose dirty cone touches guard-limited nodes).
func conformanceNoopReanalyze(t *testing.T, nw *netlist.Network, tb *delay.Tables,
	fix map[string]string, lb []string, want *Analyzer) {
	var target string
	for _, n := range nw.Nodes {
		if !n.IsRail() && n.Kind == netlist.KindNormal {
			target = n.Name
			break
		}
	}
	if target == "" {
		t.Skip("no editable node")
	}
	a := buildAnalyzer(t, nw, delay.NewSlope(tb), fix, lb, Options{})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	stats, err := a.Reanalyze([]incremental.Edit{
		{Kind: incremental.AddCap, Node: target, Cap: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node indexes are stable across the edit clone, so arrivals compare
	// positionally against the untouched analyzer.
	for i, n := range want.Net.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			w, g := want.Arrival(n, tr), a.Arrival(a.Net.Nodes[i], tr)
			if !sameEvent(w, g) {
				t.Fatalf("no-op reanalyze (full=%v) moved %s/%s: %+v, want %+v",
					stats.Full, n.Name, tr, g, w)
			}
		}
	}
}

// conformancePessimism checks the delay-model ordering per endpoint.
func conformancePessimism(t *testing.T, nw *netlist.Network, tb *delay.Tables,
	fix map[string]string, lb []string, slope *Analyzer) {
	lum := buildAnalyzer(t, nw, delay.NewLumped(tb), fix, lb, Options{})
	rc := buildAnalyzer(t, nw, delay.NewRC(tb), fix, lb, Options{})
	for _, a := range []*Analyzer{lum, rc} {
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
	}
	guarded := make(map[int]bool)
	for _, a := range []*Analyzer{lum, rc, slope} {
		for _, n := range a.Unbounded {
			guarded[n.Index] = true
		}
	}
	const eps = 1e-15
	checked := 0
	for _, n := range nw.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			le, re, se := lum.Arrival(n, tr), rc.Arrival(n, tr), slope.Arrival(n, tr)
			if le.Valid != re.Valid || se.Valid != re.Valid {
				t.Errorf("models disagree on reachability of %s/%s: lumped=%v rc=%v slope=%v",
					n.Name, tr, le.Valid, re.Valid, se.Valid)
				continue
			}
			if !re.Valid || guarded[n.Index] {
				continue
			}
			checked++
			if le.T < re.T-eps {
				t.Errorf("lumped %s/%s = %g < rc %g", n.Name, tr, le.T, re.T)
			}
			if se.T < re.T-eps {
				t.Errorf("slope %s/%s = %g < rc %g", n.Name, tr, se.T, re.T)
			}
		}
	}
	if checked == 0 {
		t.Error("pessimism sweep checked no endpoints")
	}
}

// conformanceTransitions diffs two settled simulator states and requires
// the analyzer to hold a valid arrival for every definite transition
// between them. Indefinite (X) endpoints are excluded: an untimed ternary
// settle cannot claim them. Returns the number of definite transitions.
func conformanceTransitions(t *testing.T, nw *netlist.Network, a *Analyzer,
	dir string, before, after []switchsim.Value) int {
	t.Helper()
	observed := 0
	for _, n := range nw.Nodes {
		if n.IsRail() {
			continue
		}
		was, now := before[n.Index], after[n.Index]
		if was == now || was == switchsim.VX || now == switchsim.VX {
			continue
		}
		observed++
		tr := tech.Rise
		if now == switchsim.V0 {
			tr = tech.Fall
		}
		if !a.Arrival(n, tr).Valid {
			t.Errorf("%s sweep: switchsim observed %s %s→%s but the analyzer has no %s arrival",
				dir, n.Name, was, now, tr)
		}
	}
	return observed
}

// conformanceVector settles the switch-level simulator on the all-inputs-
// low vector, flips every free input high, then back low, and requires
// the analyzer to cover the definite transitions of both sweeps — the
// timing analysis never misses a real rise or a real fall. The same two
// corner vectors then go through the vectorized batch engine from
// power-on state: its transition set must be covered bidirectionally too
// (the 0-corner → 1-corner diff in the rise direction and its reverse in
// the fall direction), tying the batch engine to the analyzer without a
// scalar intermediary.
func conformanceVector(t *testing.T, nw *netlist.Network, fix map[string]string, a *Analyzer) {
	sim := switchsim.New(nw)
	for name, v := range fix {
		if err := sim.SetInputName(name, switchsim.FromBool(v == "1")); err != nil {
			t.Fatal(err)
		}
	}
	setFree := func(v switchsim.Value) {
		for _, in := range nw.Inputs() {
			if _, fixed := fix[in.Name]; fixed {
				continue
			}
			if err := sim.SetInput(in, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	setFree(switchsim.V0)
	sim.Settle()
	low := sim.Snapshot()
	setFree(switchsim.V1)
	sim.Settle()
	high := sim.Snapshot()
	setFree(switchsim.V0)
	sim.Settle()
	back := sim.Snapshot()

	observed := conformanceTransitions(t, nw, a, "up", low, high)
	observed += conformanceTransitions(t, nw, a, "down", high, back)
	if observed == 0 {
		t.Error("vector sweeps produced no definite transitions; sweep is vacuous")
	}

	// Batch cross-check: the two corner vectors settled independently from
	// power-on through the 64-lane engine.
	b := switchsim.NewBatch(nw)
	inputs := b.Inputs()
	vecs := make([]switchsim.Value, 0, 2*len(inputs))
	for _, corner := range []switchsim.Value{switchsim.V0, switchsim.V1} {
		for _, in := range inputs {
			if v, fixed := fix[in.Name]; fixed {
				vecs = append(vecs, switchsim.FromBool(v == "1"))
			} else {
				vecs = append(vecs, corner)
			}
		}
	}
	res, err := b.Run(vecs, nil)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	batchObserved := conformanceTransitions(t, nw, a, "batch-up", res.Out[0], res.Out[1])
	batchObserved += conformanceTransitions(t, nw, a, "batch-down", res.Out[1], res.Out[0])
	if batchObserved == 0 {
		t.Error("batch corner vectors produced no definite transitions; sweep is vacuous")
	}
}
