package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// requireHistoryOnTriggersOnly asserts the history rule: a replay stream is
// kept only for a node whose events can trigger a stage — it gates a device
// or is an input with channel terminals, and no loop break cuts its fanout.
// The condition is spelled out from a compile of the network, not read from
// the analyzer's own mask (nor its compile, which a finished drain drops). It
// returns how many (node, transition) streams exist.
func requireHistoryOnTriggersOnly(t *testing.T, label string, a *Analyzer) (owned int) {
	t.Helper()
	cn := netlist.Compile(a.Net)
	for i, n := range a.Net.Nodes {
		trigger := !a.loopBreak[i] &&
			(len(cn.Gates(i)) > 0 || (cn.IsInput[i] && cn.HasTerms[i]))
		for tr := range a.hist[i] {
			if a.hist[i][tr].head == 0 {
				continue
			}
			owned++
			if !trigger {
				t.Fatalf("%s: %s/%s owns replay history but can trigger nothing (loop break %v)",
					label, n.Name, tech.Transition(tr), a.loopBreak[i])
			}
		}
	}
	return owned
}

// histStream returns the recorded replay stream of (node, tr) in order.
func (a *Analyzer) histStream(node int, tr tech.Transition) (out []histEvent) {
	h := a.hist[node][tr]
	for ci := h.head; ci != 0; ci = a.histChunkAt(ci).next {
		c := a.histChunkAt(ci)
		out = append(out, c.ev[:c.n]...)
	}
	return out
}

// requireMatchesFresh compares a re-analyzed analyzer with a from-scratch
// analysis of the same network: every node × transition's arrival — time,
// slope, provenance — its propagation count and its recorded replay stream
// (what the next Reanalyze will start from), and the feedback-guard
// verdicts.
func requireMatchesFresh(t *testing.T, label string, got, fresh *Analyzer) {
	t.Helper()
	for i, n := range fresh.Net.Nodes {
		for _, tr := range transitions {
			if w, g := fresh.Arrival(n, tr), got.Arrival(n, tr); !sameEvent(w, g) {
				t.Fatalf("%s: arrival %s/%s = %+v, from scratch %+v", label, n.Name, tr, g, w)
			}
			if w, g := fresh.count[i][tr], got.count[i][tr]; w != g {
				t.Fatalf("%s: %s/%s propagated %d times, from scratch %d", label, n.Name, tr, g, w)
			}
			if w, g := fresh.histStream(i, tr), got.histStream(i, tr); !slices.Equal(w, g) {
				t.Fatalf("%s: %s/%s replay stream %v, from scratch %v", label, n.Name, tr, g, w)
			}
		}
	}
	if len(got.Unbounded) != len(fresh.Unbounded) {
		t.Fatalf("%s: %d unbounded nodes, from scratch %d", label, len(got.Unbounded), len(fresh.Unbounded))
	}
	for i := range fresh.Unbounded {
		if got.Unbounded[i].Index != fresh.Unbounded[i].Index {
			t.Fatalf("%s: unbounded[%d] = %s, from scratch %s", label,
				i, got.Unbounded[i].Name, fresh.Unbounded[i].Name)
		}
	}
}

// TestReanalyzeSinkBecomesTrigger pins the second half of the history rule.
// A node that gates nothing records no replay stream; when an edit gives it
// its first gate connection it would be replayed into the edited group, so
// Reanalyze must re-derive it instead (widening it into the dirty set), and
// the inverse edit must return to the original answer.
func TestReanalyzeSinkBecomesTrigger(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	chipFix, chipLB := gen.ChipDirectives(8)
	for _, fam := range []struct {
		name  string
		build func() (*netlist.Network, error)
		fix   map[string]string
		lb    []string
	}{
		{"chip8", func() (*netlist.Network, error) { return gen.Chip(p, 8) }, chipFix, chipLB},
		// The carry chain of a Manchester adder is a pass chain.
		{"passchain", func() (*netlist.Network, error) { return gen.ManchesterAdder(p, 8) }, nil, nil},
	} {
		t.Run(fam.name, func(t *testing.T) {
			build := func(nw *netlist.Network) *Analyzer {
				a := buildAnalyzer(t, nw, m, fam.fix, fam.lb, Options{})
				if err := a.Run(); err != nil {
					t.Fatal(err)
				}
				return a
			}
			nw, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			base := build(nw)
			if requireHistoryOnTriggersOnly(t, "after Run", base) == 0 {
				t.Fatal("no node recorded any history: the ownership check proves nothing")
			}

			// Sinks whose arrival was superseded after propagating — the
			// nodes that would have a stream to replay if they recorded one
			// — each paired with a victim its new device pulls down. Victims
			// are taken from the end of the netlist, where forward cones are
			// small enough for the incremental path.
			var sinks, victims []*netlist.Node
			for i, n := range nw.Nodes {
				if n.IsSource() {
					continue
				}
				if c := base.count[i]; len(n.Gates) == 0 && c[0]+c[1] > 2 {
					sinks = append(sinks, n)
				} else if len(n.Gates) > 0 && base.Arrival(n, tech.Fall).Valid {
					victims = append(victims, n)
				}
			}
			if len(sinks) == 0 || len(victims) < 8 {
				t.Fatalf("%d sinks, %d victims", len(sinks), len(victims))
			}
			incrementals := 0
			for k := 0; k < 8; k++ {
				sink := sinks[k*len(sinks)/8]
				victim := victims[len(victims)-1-k*len(victims)/16]
				label := fmt.Sprintf("%s gates a pulldown on %s", sink.Name, victim.Name)
				add := []incremental.Edit{{Kind: incremental.AddTrans, Dev: tech.NEnh,
					Gate: sink.Name, A: victim.Name, B: "gnd", W: 8e-6, L: 2e-6}}
				res, err := incremental.Apply(nw, add)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if fresh := build(nw).rebind(res.Net, true); !slices.Equal(fresh, []int{sink.Index}) {
					t.Fatalf("%s: rebind reports new triggers %v, want [%d]", label, fresh, sink.Index)
				}
				a := build(nw)
				st, err := a.Reanalyze(add)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !st.Full {
					incrementals++
				}
				requireMatchesFresh(t, label, a, build(a.Net))
				requireHistoryOnTriggersOnly(t, label, a)

				if _, err := a.Reanalyze([]incremental.Edit{
					{Kind: incremental.RemoveTrans, Index: len(a.Net.Trans) - 1}}); err != nil {
					t.Fatalf("%s, undone: %v", label, err)
				}
				requireMatchesFresh(t, label+", undone", a, base)
				requireHistoryOnTriggersOnly(t, label+", undone", a)
			}
			if incrementals < 2 {
				t.Errorf("%d of 8 batches took the incremental path, want at least 2", incrementals)
			}
		})
	}
}

// TestReanalyzeWidensFreshTrigger reaches Reanalyze's widening with a node
// that is NOT already dirty. No edit kind produces one today — Apply seeds
// the gate node of every device it adds — so the state is staged by hand: a
// clean boundary node that gates into the edited group has its trigger mark
// and its replay stream taken away before the batch, as if it had never
// recorded. rebind must report it, the plan must grow by its cone, and the
// result must still be the from-scratch one; replaying the node's current
// event alone, with no stream behind it, would not be.
func TestReanalyzeWidensFreshTrigger(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	nw, err := gen.Chip(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(8)
	build := func(nw *netlist.Network) *Analyzer {
		a := buildAnalyzer(t, nw, m, fix, lb, Options{})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := build(nw)
	tried := 0
	for ti := len(nw.Trans) - 1; ti >= 0 && tried < 4; ti-- {
		tn := nw.Trans[ti]
		x, v := tn.Gate, tn.A
		if x == nil || x.IsSource() || v.IsSource() || len(base.histStream(x.Index, tech.Rise)) == 0 {
			continue
		}
		// The batch only loads v: its group is re-derived, x stays clean.
		batch := []incremental.Edit{{Kind: incremental.AddCap, Node: v.Name, Cap: 5e-15}}
		res, err := incremental.Apply(nw, batch)
		if err != nil {
			t.Fatal(err)
		}
		plan := res.Plan(base.static, base.static, nil)
		if plan.ForceFull || plan.NodeDirty(x.Index) || !plan.NodeDirty(v.Index) {
			continue
		}
		tried++
		label := fmt.Sprintf("%s loaded, %s staged as a fresh trigger", v.Name, x.Name)
		a := build(nw)
		a.triggers[x.Index] = false
		for tr := range a.hist[x.Index] {
			a.freeHist(&a.hist[x.Index][tr])
		}
		st, err := a.Reanalyze(batch)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st.DirtyNodes <= plan.DirtyNodes {
			t.Fatalf("%s: %d dirty nodes, the unwidened plan has %d", label, st.DirtyNodes, plan.DirtyNodes)
		}
		requireMatchesFresh(t, label, a, build(a.Net))
		requireHistoryOnTriggersOnly(t, label, a)
	}
	if tried == 0 {
		t.Fatal("no clean boundary node with a replay stream gates into an editable group")
	}
}

// TestArrivalAllocatesNothing: reading the arrival of a node with stamped
// timing is one record load — no provenance stage is translated, cached or
// copied on the way.
func TestArrivalAllocatesNothing(t *testing.T) {
	p := tech.NMOS4()
	fix, lb := gen.ChipGridDirectives(8, 3)
	nw, err := gen.ChipGrid(p, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), fix, lb, Options{Hier: true})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var stamped []*netlist.Node
	for i, n := range nw.Nodes {
		if a.hierSkipNode != nil && a.hierSkipNode[i] {
			stamped = append(stamped, n)
		}
	}
	if len(stamped) == 0 {
		t.Fatal("nothing stamped")
	}
	vias := 0
	allocs := testing.AllocsPerRun(5, func() {
		vias = 0
		for _, n := range stamped {
			for _, tr := range transitions {
				if a.Arrival(n, tr).Via != nil {
					vias++
				}
			}
		}
	})
	if vias == 0 {
		t.Fatal("no stamped arrival carries provenance")
	}
	if allocs != 0 {
		t.Errorf("reading %d stamped arrivals (%d with provenance) allocated %.0f times, want 0",
			2*len(stamped), vias, allocs)
	}
}

// TestRecordSizes pins the layouts of the records an analysis keeps per
// node, per transistor and per stage: an arrival (two per node), a
// transistor, a net and a stage record. Each byte here is paid millions of
// times on a chip. Run with -v for the line.
func TestRecordSizes(t *testing.T) {
	var line []string
	for _, c := range []struct {
		name  string
		typ   reflect.Type
		want  uintptr
		exact bool
	}{
		{"core.Event", reflect.TypeOf(Event{}), 32, true},
		{"stage.Stage", reflect.TypeOf(stage.Stage{}), 104, false},
		{"netlist.Trans", reflect.TypeOf(netlist.Trans{}), 64, true},
		{"netlist.Node", reflect.TypeOf(netlist.Node{}), 88, true},
	} {
		size := c.typ.Size()
		line = append(line, fmt.Sprintf("%s %d B", c.name, size))
		if size > c.want || (c.exact && size != c.want) {
			t.Errorf("%s is %d bytes, want %d", c.name, size, c.want)
		}
	}
	t.Logf("record sizes: %s", strings.Join(line, ", "))
}

// TestResidentFootprint measures what an analysis keeps resident — after
// Run, after every arrival has been read, after a collection — in bytes per
// transistor, and holds it under a ceiling: the tripwire for a change that
// makes resident analysis state fatter. The edited row is an analyzer that
// went on to twenty batches of the benchmark's ladder (ten batches and
// their inverses): it owns a clone of the network, and keeps its compile
// and its stage database's enumeration view for the next batch. The
// ceilings are 1.05× the values measured when they were set (go1.24,
// linux/amd64: 1,084, 838 and 1,122, with each stage body stored once per
// channel group; one copy per record measured 1,151, 882 and 1,188, and
// before that 1,251 and 978 with 48-byte arrivals, a 112-byte stage record
// and the compile kept after the drain). Run with -v for the table.
func TestResidentFootprint(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	t.Logf("%-14s %11s %10s %12s %8s", "analysis", "transistors", "live bytes", "B/transistor", "ceiling")
	for _, c := range []struct {
		name    string
		tiles   int
		hier    bool
		edited  bool
		ceiling float64
	}{
		{"chip:8 flat", 1, false, false, 1138},
		{"chip:8,3 hier", 3, true, false, 880},
		{"chip:8 edited", 1, false, true, 1178},
	} {
		before := liveHeap()
		fix, lb := gen.ChipGridDirectives(8, c.tiles)
		nw, err := gen.ChipGrid(p, 8, c.tiles)
		if err != nil {
			t.Fatal(err)
		}
		a := buildAnalyzer(t, nw, m, fix, lb, Options{Hier: c.hier})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if c.edited {
			nodes, trans := localTargets(nw)
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < 10; k++ {
				batch, undo := localBatch(a.Net, nodes, trans, rng, ladder[k%len(ladder)])
				for _, edits := range [][]incremental.Edit{batch, undo} {
					if _, err := a.Reanalyze(edits); err != nil {
						t.Fatal(err)
					}
				}
			}
			nw = a.Net
		}
		valid := 0
		for _, n := range nw.Nodes {
			for _, tr := range transitions {
				if a.Arrival(n, tr).Valid {
					valid++
				}
			}
		}
		if valid == 0 || c.hier != (a.HierStats().Stamped > 0) {
			t.Fatalf("%s: %d arrivals, %+v", c.name, valid, a.HierStats())
		}
		live := liveHeap() - before
		per := float64(live) / float64(len(nw.Trans))
		t.Logf("%-14s %11d %10d %12.0f %8.0f", c.name, len(nw.Trans), live, per, c.ceiling)
		if per > c.ceiling {
			t.Errorf("%s: %.0f live bytes per transistor, ceiling %.0f", c.name, per, c.ceiling)
		}
		runtime.KeepAlive(a)
	}
}

// ladder is the benchmark's batch-size ladder (bench/edit.go).
var ladder = []int{1, 2, 4, 6, 10, 17, 29, 49}

// holdsView reports whether db holds an enumeration view, or a compile to
// build one from. The fields are the database's own, read by reflection
// (stage's TestSetCompiled checks them directly); a renamed field fails the
// test by name.
func holdsView(t *testing.T, db *stage.DB) bool {
	t.Helper()
	v := reflect.ValueOf(db).Elem()
	for _, name := range []string{"v", "cn"} {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("stage.DB has no field %q", name)
		}
		if !f.IsNil() {
			return true
		}
	}
	return false
}

// TestDrainScratchReleased: a finished Run keeps no compile and leaves its
// stage database without an enumeration view; an analyzer adopting that
// database through Options.DB gets the arrivals of one with a fresh
// database, and releases the view again when its own drain returns. An
// analyzer that owns its network — from its first Reanalyze on — keeps its
// compile and the view for the next batch, incremental or full.
func TestDrainScratchReleased(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	nw, err := gen.Chip(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(8)
	requireReleased := func(label string, a *Analyzer) {
		t.Helper()
		if a.cnet != nil {
			t.Fatalf("%s: the analyzer keeps its compile", label)
		}
		if holdsView(t, a.StageDB()) {
			t.Fatalf("%s: the stage database keeps its enumeration view", label)
		}
	}
	a := buildAnalyzer(t, nw, m, fix, lb, Options{})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	requireReleased("after Run", a)
	// A load on the last non-source net re-drains a small cone; the first
	// retention batch dirties most of the chip and runs from scratch.
	last := nw.Nodes[len(nw.Nodes)-1]
	for i := len(nw.Nodes) - 1; last.IsSource(); i-- {
		last = nw.Nodes[i]
	}
	first, _ := retentionBatch(nw, 0)
	for i, batch := range [][]incremental.Edit{
		{{Kind: incremental.AddCap, Node: last.Name, Cap: 5e-15}},
		first,
	} {
		st, err := a.Reanalyze(batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Full != (i == 1) {
			t.Fatalf("Reanalyze %d: full %v (%s)", i, st.Full, st.Reason)
		}
		if a.cnet == nil || !holdsView(t, a.StageDB()) {
			t.Fatalf("after Reanalyze %d (full %v): the editing analyzer dropped its compile or the view", i, st.Full)
		}
	}
	adopter := buildAnalyzer(t, a.Net, m, fix, lb, Options{DB: a.StageDB()})
	if err := adopter.Run(); err != nil {
		t.Fatal(err)
	}
	if adopter.StageDB() != a.StageDB() {
		t.Fatal("the adopting analyzer rejected the database")
	}
	requireReleased("after the adopting Run", adopter)
	fresh := buildAnalyzer(t, a.Net, m, fix, lb, Options{})
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "adopted database", fresh, adopter, false)
}
