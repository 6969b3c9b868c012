package core

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// parallelFamilies are the circuit families the worker-count identity tests sweep:
// gate-load dominated (ALU), deep carry relaxation (RippleAdder), pass-
// transistor channels (PassChain), precharged dynamic logic (PrechargedBus),
// the chip-scale mix with loop-break directives, and the same chip without
// them — combinational feedback that trips the guard, pinning Unbounded
// bookkeeping order.
func parallelFamilies(t *testing.T, p *tech.Params) []struct {
	name string
	nw   *netlist.Network
	fix  map[string]string
	lb   []string
} {
	t.Helper()
	mk := func(nw *netlist.Network, err error) *netlist.Network {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	chipFix, chipLB := gen.ChipDirectives(4)
	return []struct {
		name string
		nw   *netlist.Network
		fix  map[string]string
		lb   []string
	}{
		{"alu", mk(gen.ALU(p, 4)), nil, nil},
		{"ripple", mk(gen.RippleAdder(p, 8)), nil, nil},
		{"passchain", mk(gen.PassChain(p, 8)), nil, nil},
		{"precharged", mk(gen.PrechargedBus(p, 8)), nil, nil},
		{"chip", mk(gen.Chip(p, 4)), chipFix, chipLB},
		{"chip-feedback", mk(gen.Chip(p, 4)), chipFix, nil},
	}
}

func buildAnalyzer(t *testing.T, nw *netlist.Network, m delay.Model,
	fix map[string]string, lb []string, opts Options) *Analyzer {
	t.Helper()
	for _, name := range lb {
		n := nw.Lookup(name)
		if n == nil {
			t.Fatalf("directive node %s missing", name)
		}
		opts.LoopBreak = append(opts.LoopBreak, n)
	}
	a := New(nw, m, opts)
	for name, v := range fix {
		a.SetFixed(nw.Lookup(name), switchsim.FromBool(v == "1"))
	}
	for _, in := range nw.Inputs() {
		if _, ok := fix[in.Name]; ok {
			continue
		}
		a.SetInputEvent(in, tech.Rise, 0, 0)
		a.SetInputEvent(in, tech.Fall, 0, 0)
	}
	return a
}

// requireIdentical asserts every observable of two finished analyses
// matches bit for bit: arrivals (time, slope, provenance — including the
// Via stage pointer when both share one database), feedback-guard verdicts
// in order, truncation, and the evaluation count.
func requireIdentical(t *testing.T, label string, want, got *Analyzer, sameDB bool) {
	t.Helper()
	for _, n := range want.Net.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			w, g := want.Arrival(n, tr), got.Arrival(n, tr)
			if !sameEvent(w, g) {
				t.Fatalf("%s: arrival %s/%s = %+v, want %+v", label, n.Name, tr, g, w)
			}
			if sameDB && w.Via != g.Via {
				t.Fatalf("%s: provenance %s/%s via %p, want %p", label, n.Name, tr, g.Via, w.Via)
			}
		}
	}
	if len(want.Unbounded) != len(got.Unbounded) {
		t.Fatalf("%s: %d unbounded nodes, want %d", label, len(got.Unbounded), len(want.Unbounded))
	}
	for i := range want.Unbounded {
		if want.Unbounded[i].Index != got.Unbounded[i].Index {
			t.Fatalf("%s: unbounded[%d] = %s, want %s", label,
				i, got.Unbounded[i].Name, want.Unbounded[i].Name)
		}
	}
	if want.Truncated != got.Truncated {
		t.Fatalf("%s: truncated = %v, want %v", label, got.Truncated, want.Truncated)
	}
	if want.StagesEvaluated() != got.StagesEvaluated() {
		t.Fatalf("%s: %d stages evaluated, want %d",
			label, got.StagesEvaluated(), want.StagesEvaluated())
	}
}

// TestParallelDrainIdentity pins that Options.Workers never changes a result:
// a stage database prewarmed concurrently (Workers > 1) and one built lazily
// by the drain (Workers = 1) give bit-identical arrivals, provenance,
// Unbounded order, Truncated and StagesEvaluated, across every circuit
// family. The shared-database variant also requires identical Via provenance
// pointers — a second analyzer over a shared database must apply the exact
// stage objects the first one installed. (The name dates from a parallel
// drain that is gone; it is kept because the suite is tracked by name.)
func TestParallelDrainIdentity(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	for _, fam := range parallelFamilies(t, p) {
		t.Run(fam.name, func(t *testing.T) {
			base := buildAnalyzer(t, fam.nw, m, fam.fix, fam.lb, Options{Workers: 1})
			if err := base.Run(); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				// Shared database: Via pointers must match exactly.
				a := buildAnalyzer(t, fam.nw, m, fam.fix, fam.lb,
					Options{Workers: workers, DB: base.StageDB()})
				if err := a.Run(); err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("workers=%d shared", workers), base, a, true)

				// Private database: same arrivals from a cold enumeration.
				a = buildAnalyzer(t, fam.nw, m, fam.fix, fam.lb, Options{Workers: workers})
				if err := a.Run(); err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("workers=%d private", workers), base, a, false)
			}
		})
	}
}

// TestParallelDrainIdentityAllModels sweeps the three delay models over a
// concurrently prewarmed database: stage constants publish atomically during
// the prewarm, and each model must read the same values from them as from a
// lazily built one.
func TestParallelDrainIdentityAllModels(t *testing.T) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	nw, err := gen.ALU(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    delay.Model
	}{
		{"lumped", delay.NewLumped(tb)},
		{"rc", delay.NewRC(tb)},
		{"slope", delay.NewSlope(tb)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := buildAnalyzer(t, nw, tc.m, nil, nil, Options{Workers: 1})
			if err := base.Run(); err != nil {
				t.Fatal(err)
			}
			a := buildAnalyzer(t, nw, tc.m, nil, nil, Options{Workers: 4})
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "workers=4", base, a, false)
		})
	}
}

// TestParallelDrainIdentityChipScale runs the full E6 experiment circuit
// (Chip at width 32, the benchmark workload) over a database another
// analyzer built — the scale where staleness churn and guard cut-offs occur
// in volume.
func TestParallelDrainIdentityChipScale(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-scale identity sweep skipped in -short")
	}
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	nw, err := gen.Chip(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(32)
	base := buildAnalyzer(t, nw, m, fix, lb, Options{Workers: 1})
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	a := buildAnalyzer(t, nw, m, fix, lb, Options{Workers: 8, DB: base.StageDB()})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "workers=8 shared", base, a, true)
}

// TestParallelReanalyzeIdentity runs incremental re-analysis on an analyzer
// configured with several workers (prewarmed database, and a prewarm again
// whenever Reanalyze falls back to a full run): each edit epoch is checked
// against a one-worker analyzer applying the same batch.
func TestParallelReanalyzeIdentity(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	fix, lb := gen.ChipDirectives(4)

	mkNet := func() *netlist.Network {
		nw, err := gen.Chip(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	serial := buildAnalyzer(t, mkNet(), m, fix, lb, Options{Workers: 1})
	parallel := buildAnalyzer(t, mkNet(), m, fix, lb, Options{Workers: 4})
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Run(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "initial run", serial, parallel, false)

	for epoch := 0; epoch < 4; epoch++ {
		idx := (11 * epoch) % len(serial.Net.Trans)
		for serial.Net.Trans[idx].IsWire() {
			idx = (idx + 1) % len(serial.Net.Trans)
		}
		edits := []incremental.Edit{
			{Kind: incremental.Resize, Index: idx, W: float64(3+epoch) * 1e-6},
		}
		ss, err := serial.Reanalyze(edits)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := parallel.Reanalyze(edits)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Full != ps.Full || ss.DirtyNodes != ps.DirtyNodes ||
			ss.StagesEvaluated != ps.StagesEvaluated {
			t.Fatalf("epoch %d: stats diverge: serial %+v, parallel %+v", epoch, ss, ps)
		}
		requireIdentical(t, fmt.Sprintf("epoch %d", epoch), serial, parallel, false)
	}
}
