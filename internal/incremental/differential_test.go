// Differential verification of the incremental engine: after any edit
// batch, Reanalyze must leave the analyzer bit-identical — every arrival's
// time, slope and provenance — to a from-scratch analysis of the edited
// network. The table test pins one scenario per edit kind; the fuzz target
// throws random edit sequences at randomly chosen circuits.
package incremental_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// inputNames lists the network's inputs — the seed set is fixed when the
// analysis is first configured and must not drift when an edit retypes a
// node to input later.
func inputNames(nw *netlist.Network) []string {
	var out []string
	for _, in := range nw.Inputs() {
		out = append(out, in.Name)
	}
	return out
}

// newAnalyzer builds the reference analysis configuration: slope model on
// analytic tables, the named inputs seeded in both directions at t=0.
func newAnalyzer(t testing.TB, nw *netlist.Network, seeds []string) *core.Analyzer {
	p := nw.Tech
	m, err := delay.ByName("slope", delay.AnalyticTables(p))
	if err != nil {
		t.Fatalf("delay model: %v", err)
	}
	a := core.New(nw, m, core.Options{})
	for _, name := range seeds {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if err := a.SetInputEventName(name, tr, 0, 1e-9); err != nil {
				t.Fatalf("seed %s: %v", name, err)
			}
		}
	}
	return a
}

func sameEvent(x, y core.Event) bool {
	if x.Valid != y.Valid {
		return false
	}
	if !x.Valid {
		return true
	}
	return x.T == y.T && x.Slope == y.Slope &&
		x.FromNode == y.FromNode && x.FromTr == y.FromTr
}

// checkAgainstFull runs a fresh full analysis of a.Net and fails the test
// on the first arrival that differs from a's state. The fresh run settles
// the static snapshot from power-on, and the stage database's stamp spells
// the snapshot out node by node, so equal stamps cross-check whatever
// Reanalyze's settle step did — keep, cone settle or fallback — against
// the full settle.
func checkAgainstFull(t *testing.T, a *core.Analyzer, seeds []string, label string) {
	t.Helper()
	ref := newAnalyzer(t, a.Net, seeds)
	if err := ref.Run(); err != nil {
		t.Fatalf("%s: reference run: %v", label, err)
	}
	if got, want := a.StageDB().Stamp, ref.StageDB().Stamp; got != want {
		t.Fatalf("%s: static snapshot %s, a power-on settle gives %s", label, got, want)
	}
	for _, n := range a.Net.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			got, want := a.Arrival(n, tr), ref.Arrival(n, tr)
			if !sameEvent(got, want) {
				t.Fatalf("%s: node %s %v: incremental %+v != full %+v",
					label, n.Name, tr, got, want)
			}
		}
	}
	if len(a.Unbounded) != len(ref.Unbounded) {
		t.Fatalf("%s: unbounded count %d != %d", label, len(a.Unbounded), len(ref.Unbounded))
	}
}

func TestReanalyzeMatchesFull(t *testing.T) {
	p := tech.NMOS4()
	um := 1e-6
	cases := []struct {
		name  string
		build func() (*netlist.Network, error)
		edits [][]incremental.Edit // sequential batches
	}{
		{
			name:  "resize-one-inverter",
			build: func() (*netlist.Network, error) { return gen.InverterChain(p, 8, 2) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.Resize, Index: 3, W: 16 * um, L: 2 * um},
			}},
		},
		{
			name:  "add-cap-and-resize",
			build: func() (*netlist.Network, error) { return gen.RippleAdder(p, 2) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.AddCap, Node: "s0", Cap: 150e-15},
				{Kind: incremental.Resize, Index: 0, W: 12 * um},
			}},
		},
		{
			name:  "remove-transistor",
			build: func() (*netlist.Network, error) { return gen.Decoder(p, 2) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.RemoveTrans, Index: 5},
			}},
		},
		{
			name:  "add-pulldown",
			build: func() (*netlist.Network, error) { return gen.InverterChain(p, 6, 1) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.AddTrans, Dev: tech.NEnh, Gate: "s2", A: "s4", B: "gnd",
					W: 8 * um, L: 2 * um},
			}},
		},
		{
			name:  "add-wire-and-new-node",
			build: func() (*netlist.Network, error) { return gen.PassChain(p, 6) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.AddCap, Node: "tap_new", Cap: 40e-15},
				{Kind: incremental.AddTrans, Dev: tech.RWire, A: "p3", B: "tap_new", R: 900},
			}},
		},
		{
			name:  "retype-forces-full",
			build: func() (*netlist.Network, error) { return gen.RippleAdder(p, 2) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.Retype, Node: "c1", NodeKind: netlist.KindOutput},
			}},
		},
		{
			name:  "sequential-batches",
			build: func() (*netlist.Network, error) { return gen.ALU(p, 2) },
			edits: [][]incremental.Edit{
				{{Kind: incremental.Resize, Index: 2, W: 10 * um}},
				{{Kind: incremental.AddCap, Node: "r0", Cap: 80e-15}},
				{{Kind: incremental.RemoveTrans, Index: 0}},
			},
		},
		{
			name:  "precharged-bus",
			build: func() (*netlist.Network, error) { return gen.PrechargedBus(p, 4) },
			edits: [][]incremental.Edit{{
				{Kind: incremental.Resize, Index: 1, W: 6 * um},
				{Kind: incremental.AddCap, Node: "bus", Cap: 60e-15},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := tc.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			seeds := inputNames(nw)
			a := newAnalyzer(t, nw, seeds)
			if err := a.Run(); err != nil {
				t.Fatalf("initial run: %v", err)
			}
			for i, batch := range tc.edits {
				stats, err := a.Reanalyze(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if stats.Epoch != uint64(i+1) {
					t.Errorf("batch %d: epoch %d, want %d", i, stats.Epoch, i+1)
				}
				checkAgainstFull(t, a, seeds, fmt.Sprintf("batch %d (%+v)", i, stats))
			}
		})
	}
}

// TestReanalyzeFallbacks pins the full-analysis triggers.
func TestReanalyzeFallbacks(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.InverterChain(p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := inputNames(nw)
	a := newAnalyzer(t, nw, seeds)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	// Retype ⇒ full.
	stats, err := a.Reanalyze([]incremental.Edit{
		{Kind: incremental.Retype, Node: "s1", NodeKind: netlist.KindOutput},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full {
		t.Errorf("retype batch: Full=false, want fallback (%+v)", stats)
	}
	// Resizing every device dirties more than half the nodes ⇒ threshold
	// fallback.
	a2 := newAnalyzer(t, nw, seeds)
	if err := a2.Run(); err != nil {
		t.Fatal(err)
	}
	var all []incremental.Edit
	for i := range nw.Trans {
		all = append(all, incremental.Edit{Kind: incremental.Resize, Index: i, W: 9e-6})
	}
	stats, err = a2.Reanalyze(all)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyFrac <= 0.5 {
		t.Fatalf("batch dirtied %.2f of the nodes, want more than half (%+v)", stats.DirtyFrac, stats)
	}
	if !stats.Full || !strings.HasPrefix(stats.Reason, "dirty fraction") {
		t.Errorf("dirty batch: Full=%v reason %q, want the threshold fallback", stats.Full, stats.Reason)
	}
	checkAgainstFull(t, a2, seeds, "threshold fallback")
}

// circuits available to the fuzzer, all combinational nMOS structures
// with distinct stage shapes (static gates, pass chains, precharged bus,
// wide fan-in decode).
func fuzzCircuit(sel byte) (*netlist.Network, error) {
	p := tech.NMOS4()
	switch sel % 6 {
	case 0:
		return gen.InverterChain(p, 6, 2)
	case 1:
		return gen.PassChain(p, 5)
	case 2:
		return gen.RippleAdder(p, 2)
	case 3:
		return gen.Decoder(p, 2)
	case 4:
		return gen.PrechargedBus(p, 3)
	default:
		return gen.ALU(p, 2)
	}
}

// decodeEdits turns fuzz bytes into a valid-by-construction edit batch
// against a network that currently has nt transistors. It returns the
// edits and the transistor count after them, so sequential batches stay
// in range. Invalid combinations the fuzzer finds anyway (supply shorts,
// p-channel devices) are exercised through Apply's error path by the
// caller.
func decodeEdits(nw *netlist.Network, data []byte, pos *int, nt int) ([]incremental.Edit, int) {
	next := func() byte {
		if *pos >= len(data) {
			return 0
		}
		b := data[*pos]
		*pos++
		return b
	}
	var names []string
	for _, n := range nw.Nodes {
		names = append(names, n.Name)
	}
	pick := func() string { return names[int(next())%len(names)] }
	um := 1e-6
	count := int(next())%5 + 1
	var edits []incremental.Edit
	for e := 0; e < count; e++ {
		switch next() % 12 {
		case 0, 1, 2: // resize is the common designer move
			if nt == 0 {
				continue
			}
			edits = append(edits, incremental.Edit{
				Kind:  incremental.Resize,
				Index: int(next()) % nt,
				W:     float64(next()%24+2) * um,
				L:     float64(next()%3+2) * um,
			})
		case 3, 4, 5:
			edits = append(edits, incremental.Edit{
				Kind: incremental.AddCap,
				Node: pick(),
				Cap:  (float64(next()) - 64) * 1e-15,
			})
		case 6, 7:
			dev := tech.NEnh
			if next()%4 == 0 {
				dev = tech.NDep
			}
			edits = append(edits, incremental.Edit{
				Kind: incremental.AddTrans, Dev: dev,
				Gate: pick(), A: pick(), B: pick(),
				W: float64(next()%16+2) * um, L: 2 * um,
			})
			nt++
		case 8:
			edits = append(edits, incremental.Edit{
				Kind: incremental.AddTrans, Dev: tech.RWire,
				A: pick(), B: pick(),
				R: float64(next()%200+1) * 50,
			})
			nt++
		case 9, 10:
			if nt == 0 {
				continue
			}
			edits = append(edits, incremental.Edit{
				Kind:  incremental.RemoveTrans,
				Index: int(next()) % nt,
			})
			nt--
		default:
			// Retype a non-rail, non-input node (inputs stay inputs so the
			// seeded events remain applicable).
			name := pick()
			n := nw.Lookup(name)
			if n == nil || n.IsRail() || n.Kind == netlist.KindInput {
				continue
			}
			kinds := []netlist.NodeKind{netlist.KindNormal, netlist.KindOutput, netlist.KindInput}
			edits = append(edits, incremental.Edit{
				Kind: incremental.Retype, Node: name,
				NodeKind: kinds[int(next())%len(kinds)],
			})
		}
	}
	return edits, nt
}

// applyEach applies the batch one edit at a time, each through Apply on
// the network the edits before it produced: the reference for the batch
// validation, which has to foresee what earlier edits in a batch do to
// names and indexes. It returns the final network, or the index of the
// first edit that fails.
func applyEach(nw *netlist.Network, edits []incremental.Edit) (*netlist.Network, int) {
	for i, e := range edits {
		res, err := incremental.Apply(nw, []incremental.Edit{e})
		if err != nil {
			return nil, i
		}
		nw = res.Net
	}
	return nw, -1
}

// FuzzIncremental is the differential fuzzer: random edit batches applied
// through Reanalyze must leave arrivals and the static snapshot
// bit-identical to a from-scratch analysis of the edited network, and the
// network identical to applying the batch edit by edit; an invalid batch
// must fail at the edit that fails edit by edit and leave the analyzer —
// its own network, from the second batch on — untouched.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{0, 2, 0, 3, 10, 2, 1, 7, 4})
	f.Add([]byte{1, 3, 3, 5, 90, 9, 1, 0, 2, 8, 2})
	f.Add([]byte{2, 2, 6, 1, 4, 7, 6, 11, 8, 1})
	f.Add([]byte{3, 1, 11, 6, 2, 5, 2, 200, 1})
	f.Add([]byte{4, 4, 0, 0, 20, 2, 9, 3, 3, 2, 120, 6, 1, 2, 3, 9})
	f.Add([]byte{5, 3, 8, 4, 5, 77, 0, 1, 14, 2, 10, 0})
	// A sink becomes a trigger and back: on the ripple adder, add a pulldown
	// on cout gated by c1_nd_22 (a stack-internal node that gates nothing and
	// therefore records no replay history), then remove it again.
	f.Add([]byte{2, 0, 6, 1, 28, 33, 1, 6, 0, 9, 74})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nw, err := fuzzCircuit(data[0])
		if err != nil {
			t.Fatalf("circuit: %v", err)
		}
		seeds := inputNames(nw)
		a := newAnalyzer(t, nw, seeds)
		if err := a.Run(); err != nil {
			t.Fatalf("initial run: %v", err)
		}
		pos := 1
		nt := len(nw.Trans)
		for batch := 0; batch < 3 && pos < len(data); batch++ {
			var edits []incremental.Edit
			edits, nt = decodeEdits(a.Net, data, &pos, nt)
			if len(edits) == 0 {
				continue
			}
			label := fmt.Sprintf("batch %d", batch)
			before := a.Net.Clone()
			want, bad := applyEach(before, edits)
			_, err := a.Reanalyze(edits)
			if err != nil {
				// The batch must fail where edit-by-edit application fails,
				// and a failed Reanalyze must not have moved the analyzer.
				if bad < 0 || !strings.HasPrefix(err.Error(), fmt.Sprintf("incremental: edit %d (", bad)) {
					t.Fatalf("%s: Reanalyze failed with %v; edit by edit, edit %d fails", label, err, bad)
				}
				if err := netlist.DiffNetworks(before, a.Net); err != nil {
					t.Fatalf("%s: the failed batch changed the network: %v", label, err)
				}
				checkAgainstFull(t, a, seeds, label+" (failed)")
				return
			}
			if bad >= 0 {
				t.Fatalf("%s: Reanalyze accepted a batch whose edit %d fails on its own", label, bad)
			}
			if err := netlist.DiffNetworks(want, a.Net); err != nil {
				t.Fatalf("%s: the batch and its edits one by one disagree: %v", label, err)
			}
			checkAgainstFull(t, a, seeds, label)
		}
	})
}
