package core

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// hierFamilies are the circuit families the hierarchical identity suite
// sweeps: every registered generator at a small scale, plus the tiled
// grid (the only family carrying instance annotations and hence the only
// one where stamping engages — everywhere else the hierarchical path must
// degenerate to exactly the flat analysis), plus the grid without its
// loop-break directives, where the feedback guard fires inside the tiles
// and the stamped classes must fall back to flat wholesale.
func hierFamilies(t *testing.T, p *tech.Params) []struct {
	name    string
	spec    string
	nw      *netlist.Network
	fix     map[string]string
	lb      []string
	stamped bool // expect at least one stamped instance
} {
	t.Helper()
	specs := []string{
		"invchain:6", "fanout:4", "passchain:6", "superbuffer", "bus:6",
		"ripple:6", "manchester:6", "barrel:4", "decoder:3", "alu:4",
		"regfile:4,4", "polywire:8", "datapath:8", "shiftreg:6",
		"arraymul:4", "carrysel:8", "pla:4,8,4", "chip:8",
	}
	var out []struct {
		name    string
		spec    string
		nw      *netlist.Network
		fix     map[string]string
		lb      []string
		stamped bool
	}
	for _, spec := range specs {
		nw, err := gen.Build(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		var fix map[string]string
		var lb []string
		if spec == "chip:8" {
			fix, lb = gen.ChipDirectives(8)
		}
		out = append(out, struct {
			name    string
			spec    string
			nw      *netlist.Network
			fix     map[string]string
			lb      []string
			stamped bool
		}{spec, spec, nw, fix, lb, false})
	}
	grid, err := gen.ChipGrid(p, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	gfix, glb := gen.ChipGridDirectives(8, 3)
	out = append(out, struct {
		name    string
		spec    string
		nw      *netlist.Network
		fix     map[string]string
		lb      []string
		stamped bool
	}{"chip-grid", "chip:8,3", grid, gfix, glb, true})
	grid2, err := gen.ChipGrid(p, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, struct {
		name    string
		spec    string
		nw      *netlist.Network
		fix     map[string]string
		lb      []string
		stamped bool
	}{"chip-grid-feedback", "chip:8,3", grid2, gfix, nil, false})
	return out
}

// requireHierIdentical compares a hierarchical analysis against a flat
// baseline: every arrival bit-identical (time, slope, validity,
// predecessor), the same feedback-guard verdicts in order, and the same
// critical paths with provenance stages printing identically — the
// stamped copies must name the member's own nets, not the
// representative's. Stage-evaluation counts are NOT compared: skipping
// the members' evaluations is the entire point.
func requireHierIdentical(t *testing.T, label string, want, got *Analyzer) {
	t.Helper()
	for _, n := range want.Net.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			w, g := want.Arrival(n, tr), got.Arrival(n, tr)
			if !sameEvent(w, g) {
				t.Fatalf("%s: arrival %s/%s = %+v, want %+v", label, n.Name, tr, g, w)
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
	wp, gp := want.CriticalPaths(10), got.CriticalPaths(10)
	if len(wp) != len(gp) {
		t.Fatalf("%s: %d critical paths, want %d", label, len(gp), len(wp))
	}
	for i := range wp {
		if len(wp[i].Hops) != len(gp[i].Hops) {
			t.Fatalf("%s: path %d has %d hops, want %d", label, i, len(gp[i].Hops), len(wp[i].Hops))
		}
		for h := range wp[i].Hops {
			wh, gh := wp[i].Hops[h], gp[i].Hops[h]
			if wh.Node.Index != gh.Node.Index || wh.Tr != gh.Tr || wh.Event.T != gh.Event.T {
				t.Fatalf("%s: path %d hop %d = %s/%s@%g, want %s/%s@%g", label, i, h,
					gh.Node.Name, gh.Tr, gh.Event.T, wh.Node.Name, wh.Tr, wh.Event.T)
			}
			ws, gs := "", ""
			if wh.Event.Via != nil {
				ws = wh.Event.Via.String()
			}
			if gh.Event.Via != nil {
				gs = gh.Event.Via.String()
			}
			if ws != gs {
				t.Fatalf("%s: path %d hop %d provenance %q, want %q", label, i, h, gs, ws)
			}
		}
	}
}

// TestHierIdentity pins the tentpole guarantee: hierarchical analysis is
// bit-identical to flat analysis for every circuit family, whether or not
// anything is stampable.
func TestHierIdentity(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	for _, fam := range hierFamilies(t, p) {
		t.Run(fam.name, func(t *testing.T) {
			base := buildAnalyzer(t, fam.nw, m, fam.fix, fam.lb, Options{})
			if err := base.Run(); err != nil {
				t.Fatal(err)
			}
			a := buildAnalyzer(t, fam.nw, m, fam.fix, fam.lb, Options{Hier: true})
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			requireHierIdentical(t, "hier", base, a)
			st := a.HierStats()
			if fam.stamped && st.Stamped == 0 {
				t.Errorf("nothing stamped on the tiled grid: %+v", st)
			}
			if !fam.stamped && st.Stamped != 0 {
				t.Errorf("%d instances stamped, expected none", st.Stamped)
			}
			if st.Instances != st.Stamped+st.Flat {
				t.Errorf("inconsistent stats %+v", st)
			}
		})
	}
}

// TestHierProvenance: the per-instance report says exactly which copies
// carried stamped timing and why the rest ran flat.
func TestHierProvenance(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	nw, err := gen.ChipGrid(p, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipGridDirectives(8, 4)
	a := buildAnalyzer(t, nw, m, fix, lb, Options{Hier: true})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	st := a.HierStats()
	// Tile 0 orders differently against the op bus (created mid-import),
	// so tiles 1..3 form the class: representative flat, two stamped.
	if st.Instances != 4 || st.Stamped != 2 {
		t.Fatalf("HierStats = %+v, want 4 instances / 2 stamped", st)
	}
	insts := a.HierInstances()
	if len(insts) != 4 {
		t.Fatalf("%d instance reports, want 4", len(insts))
	}
	for _, hi := range insts {
		if hi.Stamped && hi.Reason != "" {
			t.Errorf("stamped %s carries a flat reason %q", hi.Path, hi.Reason)
		}
		if !hi.Stamped && hi.Reason == "" {
			t.Errorf("flat %s has no reason", hi.Path)
		}
		if hi.TransHi <= hi.TransLo {
			t.Errorf("%s has empty range [%d,%d)", hi.Path, hi.TransLo, hi.TransHi)
		}
	}
	// A flat re-run must not report hierarchical state.
	flat := buildAnalyzer(t, nw, m, fix, lb, Options{})
	if err := flat.Run(); err != nil {
		t.Fatal(err)
	}
	if s := flat.HierStats(); s.Instances != 0 {
		t.Errorf("flat analysis reports hier stats %+v", s)
	}
	if flat.HierInstances() != nil {
		t.Error("flat analysis reports hier instances")
	}
}

// hierEditIdentity applies one edit batch to a hierarchical analyzer via
// Reanalyze and checks the result against a from-scratch flat analysis of
// the edited network.
func hierEditIdentity(t *testing.T, label string, a *Analyzer, m delay.Model,
	fix map[string]string, lb []string, edits []incremental.Edit) {
	t.Helper()
	if _, err := a.Reanalyze(edits); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh := buildAnalyzer(t, a.Net, m, fix, lb, Options{})
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	requireHierIdentical(t, label, fresh, a)
}

// TestHierReanalyze: edits inside a stamped instance detach exactly that
// instance (and stay bit-identical with flat); edits elsewhere leave the
// stamps in place.
func TestHierReanalyze(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	fix, lb := gen.ChipGridDirectives(8, 3)

	build := func(t *testing.T) *Analyzer {
		nw, err := gen.ChipGrid(p, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		a := buildAnalyzer(t, nw, m, fix, lb, Options{Hier: true})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	// pick returns a resizable device index inside (stamped=true) or
	// outside (stamped=false) a stamped instance.
	pick := func(t *testing.T, a *Analyzer, stamped bool) int {
		for _, hi := range a.HierInstances() {
			if hi.Stamped != stamped {
				continue
			}
			for ti := hi.TransLo; ti < hi.TransHi; ti++ {
				if !a.Net.Trans[ti].IsWire() {
					return ti
				}
			}
		}
		t.Fatalf("no editable device with stamped=%v", stamped)
		return -1
	}

	t.Run("inside-stamped-w1", func(t *testing.T) {
		a := build(t)
		before := a.HierStats()
		if before.Stamped == 0 {
			t.Fatal("nothing stamped")
		}
		idx := pick(t, a, true)
		hierEditIdentity(t, "resize-in-member", a, m, fix, lb,
			[]incremental.Edit{{Kind: incremental.Resize, Index: idx, W: 7e-6}})
		after := a.HierStats()
		if after.Stamped >= before.Stamped {
			t.Errorf("edit inside a stamped member left %d stamped (was %d)",
				after.Stamped, before.Stamped)
		}
	})
	t.Run("outside-stamped-w1", func(t *testing.T) {
		a := build(t)
		before := a.HierStats()
		idx := pick(t, a, false)
		hierEditIdentity(t, "resize-outside", a, m, fix, lb,
			[]incremental.Edit{{Kind: incremental.Resize, Index: idx, W: 7e-6}})
		after := a.HierStats()
		if after.Stamped != before.Stamped {
			t.Errorf("edit outside the stamps changed the stamped count %d -> %d",
				before.Stamped, after.Stamped)
		}
	})

	// A capacitance edit on a boundary net (the shared opcode bus) dirties
	// every tile it feeds: all members detach, results stay identical.
	t.Run("boundary-cap", func(t *testing.T) {
		a := build(t)
		hierEditIdentity(t, "cap-on-bus", a, m, fix, lb,
			[]incremental.Edit{{Kind: incremental.AddCap, Node: "op0", Cap: 40e-15}})
	})

	// A retype forces a full fallback; hierarchical state is dropped, the
	// full flat run stays identical.
	t.Run("retype-full-fallback", func(t *testing.T) {
		a := build(t)
		hierEditIdentity(t, "retype", a, m, fix, lb,
			[]incremental.Edit{{Kind: incremental.Retype, Node: "t1_au_cout", NodeKind: netlist.KindNormal}})
		if st := a.HierStats(); st.Instances != 0 {
			t.Errorf("hier state survived a full fallback: %+v", st)
		}
	})
}

// FuzzHierStamp drives random edit batches at a hierarchical analyzer and
// requires bit-identity with a from-scratch flat analysis after every
// batch — edits landing inside stamped instances, outside them, and on
// the shared boundary.
func FuzzHierStamp(f *testing.F) {
	f.Add(uint16(3), 4.0, 10.0)
	f.Add(uint16(9000), 1.5, 80.0)
	f.Add(uint16(77), 9.0, 0.5)
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	seed, err := gen.ChipGrid(p, 4, 3)
	if err != nil {
		f.Fatal(err)
	}
	fix, lb := gen.ChipGridDirectives(4, 3)
	f.Fuzz(func(t *testing.T, raw uint16, wScale, capScale float64) {
		if wScale != wScale || wScale <= 0 || wScale > 50 ||
			capScale != capScale || capScale < 0 || capScale > 1000 {
			t.Skip()
		}
		nw := seed.Clone()
		a := buildAnalyzer(t, nw, m, fix, lb, Options{Hier: true})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		var edits []incremental.Edit
		switch raw % 3 {
		case 0:
			idx := int(raw) % len(nw.Trans)
			for nw.Trans[idx].IsWire() {
				idx = (idx + 1) % len(nw.Trans)
			}
			edits = append(edits, incremental.Edit{
				Kind: incremental.Resize, Index: idx, W: wScale * 1e-6})
		case 1:
			node := nw.Nodes[int(raw)%len(nw.Nodes)]
			if node.IsRail() {
				node = nw.Nodes[(int(raw)+1)%len(nw.Nodes)]
			}
			if node.IsRail() {
				t.Skip()
			}
			edits = append(edits, incremental.Edit{
				Kind: incremental.AddCap, Node: node.Name, Cap: capScale * 1e-15})
		default:
			// Two edits in one batch: a resize plus bus load.
			idx := int(raw) % len(nw.Trans)
			for nw.Trans[idx].IsWire() {
				idx = (idx + 1) % len(nw.Trans)
			}
			edits = append(edits,
				incremental.Edit{Kind: incremental.Resize, Index: idx, W: wScale * 1e-6},
				incremental.Edit{Kind: incremental.AddCap, Node: "op1", Cap: capScale * 1e-15})
		}
		if _, err := a.Reanalyze(edits); err != nil {
			t.Fatal(err)
		}
		fresh := buildAnalyzer(t, a.Net, m, fix, lb, Options{})
		if err := fresh.Run(); err != nil {
			t.Fatal(err)
		}
		for _, n := range fresh.Net.Nodes {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				w, g := fresh.Arrival(n, tr), a.Arrival(n, tr)
				if !sameEvent(w, g) {
					t.Fatalf("arrival %s/%s = %+v, want %+v (edits %v)", n.Name, tr, g, w, edits)
				}
			}
		}
	})
}
