package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// localTargets lists, by index, the nodes a local edit may touch —
// non-source nodes that gate a device and whose forward cone (their channel
// group, everything it gates, and so on) holds at most half a percent of the
// network, the invalidation closure of package incremental at node
// granularity — and the non-wire devices they gate.
func localTargets(nw *netlist.Network) (nodes, trans []int) {
	limit := max(8, len(nw.Nodes)/200)
	mark := make([]int, len(nw.Nodes))
	for _, n := range nw.Nodes {
		if n.IsSource() || len(n.Gates) == 0 {
			continue
		}
		queue := []*netlist.Node{n}
		mark[n.Index] = n.Index + 1
		for qi := 0; qi < len(queue) && len(queue) <= limit; qi++ {
			cur := queue[qi]
			reach := cur.Gates
			if !cur.IsSource() {
				reach = append(reach[:len(reach):len(reach)], cur.Terms...)
			}
			for _, t := range reach {
				for _, o := range []*netlist.Node{t.A, t.B} {
					if !o.IsRail() && mark[o.Index] != n.Index+1 {
						mark[o.Index] = n.Index + 1
						queue = append(queue, o)
					}
				}
			}
		}
		if len(queue) > limit {
			continue
		}
		nodes = append(nodes, n.Index)
		for _, t := range n.Gates {
			if !t.IsWire() {
				trans = append(trans, t.Index)
			}
		}
	}
	return nodes, trans
}

// localBatch draws size AddCap/Resize edits (three loads to two resizes, the
// proportions of the designer loop) on the given targets of nw, a generation
// with the devices localTargets saw at the indexes it saw them, and the
// exact inverse.
func localBatch(nw *netlist.Network, nodes, trans []int, rng *rand.Rand, size int) (batch, undo []incremental.Edit) {
	for i := 0; i < size; i++ {
		if rng.Intn(5) < 3 {
			n := nw.Nodes[nodes[rng.Intn(len(nodes))]]
			c := (5 + 35*rng.Float64()) * 1e-15
			batch = append(batch, incremental.Edit{Kind: incremental.AddCap, Node: n.Name, Cap: c})
			undo = append(undo, incremental.Edit{Kind: incremental.AddCap, Node: n.Name, Cap: -c})
		} else {
			t := nw.Trans[trans[rng.Intn(len(trans))]]
			batch = append(batch, incremental.Edit{Kind: incremental.Resize, Index: t.Index, W: t.W * (0.8 + 0.45*rng.Float64())})
			undo = append(undo, incremental.Edit{Kind: incremental.Resize, Index: t.Index, W: t.W})
		}
	}
	slices.Reverse(undo)
	return batch, undo
}

// coneBatch draws a random edit batch against nw for the cone-settle
// property test: loads and resizes big enough to carry a node across
// switchsim.K2CapFloor either way, devices added between existing nets
// (inputs, fixed ones included, and rails) and devices removed, with now and
// then a load on a net that does not exist yet or a retype — the two
// power-on fallbacks.
func coneBatch(nw *netlist.Network, rng *rand.Rand, cmos bool) []incremental.Edit {
	var batch []incremental.Edit
	nt := len(nw.Trans)
	node := func() *netlist.Node { return nw.Nodes[rng.Intn(len(nw.Nodes))] }
	for i := 1 + rng.Intn(4); i > 0; i-- {
		switch u := rng.Intn(100); {
		case u < 40:
			batch = append(batch, incremental.Edit{Kind: incremental.AddCap, Node: node().Name,
				Cap: float64(rng.Intn(300)-100) * 1e-15})
		case u < 65:
			ti := rng.Intn(nt)
			if ti >= len(nw.Trans) || nw.Trans[ti].IsWire() {
				continue
			}
			w := nw.Trans[ti].W * (0.3 + 4*rng.Float64())
			batch = append(batch, incremental.Edit{Kind: incremental.Resize, Index: ti, W: w})
		case u < 82:
			dev := []tech.Device{tech.NEnh, tech.NDep, tech.PEnh}[rng.Intn(2+boolInt(cmos))]
			a, b := node(), node()
			if a.IsRail() && b.IsRail() {
				continue
			}
			batch = append(batch, incremental.Edit{Kind: incremental.AddTrans, Dev: dev,
				Gate: node().Name, A: a.Name, B: b.Name, W: float64(4+rng.Intn(20)) * 1e-6})
			nt++
		case u < 96:
			batch = append(batch, incremental.Edit{Kind: incremental.RemoveTrans, Index: rng.Intn(nt)})
			nt--
		case u < 98:
			batch = append(batch, incremental.Edit{Kind: incremental.AddCap, Node: fmt.Sprintf("stub_%d", rng.Int()), Cap: 10e-15})
		default:
			if n := node(); !n.IsRail() && n.Kind != netlist.KindInput {
				batch = append(batch, incremental.Edit{Kind: incremental.Retype, Node: n.Name, NodeKind: netlist.KindOutput})
			}
		}
	}
	return batch
}

// bindForSettle compiles a's network and sizes its per-node state, as Run
// does before its settle, so the settle step can run alone; Reanalyze's
// rebind then binds each edited generation before settleEdited reads it.
func bindForSettle(a *Analyzer) {
	a.resetDrain()
	a.buildGates()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestConeSettleMatchesPowerOn pins the cone rule of the static
// sensitization snapshot: whatever Reanalyze's settle step makes of a batch —
// the snapshot stands, the batch's forward lattice cone is settled again
// from the previous snapshot, or a fallback settles from power-on — the
// snapshot equals a power-on settle of the edited network bit for bit. The
// corpus holds static and ratioed logic, latches (the register file's
// cross-coupled cells, the dynamic shift register), a precharged bus and a
// whole chip, in nMOS and CMOS; some inputs are fixed, the rest stay free,
// and batches edit both. The settle step runs alone here, without the
// drain, so the check is cheap enough for hundreds of batches.
func TestConeSettleMatchesPowerOn(t *testing.T) {
	corpus := []string{"chip:8", "chip:32", "regfile:8,8", "datapath:8", "shiftreg:8", "manchester:16",
		"alu:8", "barrel:8", "bus:8", "pla:8,16,8", "carrysel:16", "ripple:16", "decoder:6"}
	batches := 100
	if testing.Short() {
		corpus, batches = corpus[:1], 20
	}
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		m := delay.NewSlope(delay.AnalyticTables(p))
		for ci, spec := range corpus {
			t.Run(p.Name+"/"+spec, func(t *testing.T) {
				nw, err := gen.Build(spec, p)
				if err != nil {
					t.Fatal(err)
				}
				var fix map[string]string
				if w, ok := strings.CutPrefix(spec, "chip:"); ok {
					width := 8
					fmt.Sscan(w, &width)
					fix, _ = gen.ChipDirectives(width)
				} else {
					// Every third input fixed, alternately low and high.
					fix = map[string]string{}
					for i, in := range nw.Inputs() {
						if i%3 == 0 {
							fix[in.Name] = fmt.Sprint((i / 3) % 2)
						}
					}
				}
				// The analyzer owns a clone and edits it in place, as Reanalyze
				// does from its second call on.
				a := buildAnalyzer(t, nw.Clone(), m, fix, nil, Options{})
				bindForSettle(a)
				if err := a.settleStatic(); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(ci + 1)))
				var stood, cones, fallbacks, coneNodes int
				for b := 0; b < batches; b++ {
					batch := coneBatch(a.Net, rng, p.HasPChannel())
					res, err := incremental.ApplyInPlace(a.Net, batch)
					if err != nil {
						continue // a drawn removal ran past the end; nothing was applied
					}
					a.rebind(res.Net, a.compileReason(res) != "")
					resettled, reason, err := a.settleEdited(res)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case reason != "":
						fallbacks++
					case resettled == 0:
						stood++
					default:
						cones++
						coneNodes += resettled
					}
					ref := buildAnalyzer(t, a.Net, m, fix, nil, Options{})
					bindForSettle(ref)
					if err := ref.settleStatic(); err != nil {
						t.Fatal(err)
					}
					for i := range ref.static {
						if a.static[i] != ref.static[i] {
							t.Fatalf("batch %d %+v: %s settled to %v, a power-on settle gives %v (resettled %d, fallback %q)",
								b, batch, a.Net.Nodes[i].Name, a.static[i], ref.static[i], resettled, reason)
						}
					}
					if ref.staticOsc {
						t.Logf("batch %d: the power-on settle oscillated", b)
					}
				}
				if cones == 0 {
					t.Errorf("no batch took the cone settle (%d stood, %d fell back)", stood, fallbacks)
				}
				t.Logf("%d batches: %d stood, %d cone settles (mean %d of %d nodes), %d fallbacks",
					batches, stood, cones, coneNodes/max(cones, 1), len(a.Net.Nodes), fallbacks)
			})
		}
	}
}

// TestSettleFallbacks pins when the settle step leaves the cone for a
// power-on settle, and that it says why.
func TestSettleFallbacks(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.PrechargedBus(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewSlope(delay.AnalyticTables(p))
	// A load that lifts a storage node from K1 to K2.
	var load []incremental.Edit
	for _, n := range nw.Nodes {
		if switchsim.SizeOf(nw, n) == switchsim.SK1 && len(n.Terms) > 0 {
			load = []incremental.Edit{{Kind: incremental.AddCap, Node: n.Name, Cap: switchsim.K2CapFloor - nw.NodeCap(n) + 1e-15}}
			break
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(a *Analyzer)
		batch []incremental.Edit
		want  string
	}{
		{"cone", nil, load, ""},
		{"retype", nil, []incremental.Edit{{Kind: incremental.Retype, Node: "out", NodeKind: netlist.KindNormal}}, "retype"},
		{"created node", nil, []incremental.Edit{{Kind: incremental.AddCap, Node: "stub", Cap: 1e-15}}, "created"},
		{"clocked state", func(a *Analyzer) { a.initial = make([]switchsim.Value, len(a.Net.Nodes)) }, load, "clocked"},
		{"oscillation", func(a *Analyzer) { a.staticOsc = true }, load, "oscillated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := buildAnalyzer(t, nw.Clone(), m, nil, nil, Options{})
			bindForSettle(a)
			if err := a.settleStatic(); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(a)
			}
			res, err := incremental.ApplyInPlace(a.Net, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			a.rebind(res.Net, a.compileReason(res) != "")
			n, reason, err := a.settleEdited(res)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(reason, tc.want) || (tc.want == "") != (reason == "") {
				t.Errorf("fallback reason %q, want one naming %q", reason, tc.want)
			}
			if tc.want != "" && n != len(a.Net.Nodes) {
				t.Errorf("a power-on settle re-settled %d of %d nodes", n, len(a.Net.Nodes))
			}
			if tc.want == "" && (n == 0 || n == len(a.Net.Nodes)) {
				t.Errorf("the cone settle re-settled %d of %d nodes", n, len(a.Net.Nodes))
			}
		})
	}
}

// TestReanalyzeKeepsLayout pins that the per-node state belongs to the
// analysis: across a stream that creates nodes (AddTrans naming new nets)
// and removes the devices again, the per-node arrays stay where they are
// unless a node was added, replay history stays on trigger nodes, and every
// arrival equals a fresh analyzer's.
func TestReanalyzeKeepsLayout(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	fix, lb := gen.ChipDirectives(8)
	build := func(nw *netlist.Network) *Analyzer {
		a := buildAnalyzer(t, nw, m, fix, lb, Options{})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	nw, err := gen.Chip(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := build(nw)
	nodes, trans := localTargets(nw)
	rng := rand.New(rand.NewSource(3))
	var undo []incremental.Edit
	var incrementals int
	for g := 0; g < 40; g++ {
		var batch []incremental.Edit
		label := fmt.Sprintf("generation %d", g)
		switch {
		case undo != nil:
			batch, undo = undo, nil
			label += " (inverse)"
		case g%4 == 0: // a pulldown on a late net, hanging off a net that does not exist yet
			gate, victim := nw.Nodes[nodes[rng.Intn(len(nodes))]], nw.Nodes[nodes[rng.Intn(len(nodes))]]
			batch = []incremental.Edit{
				{Kind: incremental.AddTrans, Dev: tech.NEnh, Gate: gate.Name, A: victim.Name, B: fmt.Sprintf("tap_%d", g), W: 8e-6, L: 2e-6},
				{Kind: incremental.AddTrans, Dev: tech.NEnh, Gate: fmt.Sprintf("tap_%d", g), A: fmt.Sprintf("tip_%d", g), B: "gnd", W: 8e-6, L: 2e-6},
			}
			undo = []incremental.Edit{
				{Kind: incremental.RemoveTrans, Index: len(a.Net.Trans) + 1},
				{Kind: incremental.RemoveTrans, Index: len(a.Net.Trans)},
			}
		default:
			batch, undo = localBatch(a.Net, nodes, trans, rng, 1+rng.Intn(6))
		}
		oldNodes := len(a.Net.Nodes)
		events, count, hist, queued := &a.events[0], &a.count[0], &a.hist[0], &a.queued[0]

		st, err := a.Reanalyze(batch)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !st.Full {
			incrementals++
			if len(a.Net.Nodes) == oldNodes &&
				(events != &a.events[0] || count != &a.count[0] || hist != &a.hist[0] || queued != &a.queued[0]) {
				t.Fatalf("%s: a per-node array was reallocated although no node was added", label)
			}
		}
		requireHistoryOnTriggersOnly(t, label, a)
		requireMatchesFresh(t, label, a, build(a.Net))
	}
	if incrementals < 10 {
		t.Errorf("%d of 40 batches took the incremental path, want at least 10", incrementals)
	}
}

// TestReanalyzePhases prints where a generation's wall time and allocation
// go, phase by phase, for a one-edit and a 49-edit batch (the ends of the
// benchmark's batch-size ladder) on chip:16: the median over ten
// batch/inverse pairs, the bytes a generation allocates, and how many
// generations kept the analyzer's compile (CompileReason empty). It asserts
// that the phases are measured and account for the call, and that a
// one-edit generation allocates less than half of what one
// netlist.Compile of the chip does: such a batch (a load or a resize)
// changes nothing the compile holds, so nothing whole-chip is rebuilt.
func TestReanalyzePhases(t *testing.T) {
	const width = 16
	p := tech.NMOS4()
	nw, err := gen.Chip(p, width)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(width)
	// The guard budget of the benchmark's chip workloads: under the default
	// a chip-scale run leaves nodes on the feedback guard, and a batch that
	// reaches one falls back to a full run.
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), fix, lb, Options{MaxEventsPerNode: 1000})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	before := allocated()
	netlist.Compile(nw)
	compileKB := float64(allocated()-before) / 1024
	var out strings.Builder
	fmt.Fprintf(&out, "chip:%d, %d transistors, median of 20 generations (ms); one netlist.Compile allocates %.0f KB\n",
		width, len(nw.Trans), compileKB)
	fmt.Fprintf(&out, "%-8s %8s %8s %8s %8s %8s %8s %8s %8s %9s %8s %8s\n",
		"edits", "apply", "bind", "settle", "plan", "derive", "drain", "total", "dirty%", "resettled", "alloc KB", "compile")
	rng := rand.New(rand.NewSource(1))
	nodes, trans := localTargets(nw)
	reasons := map[string]int{}
	for _, size := range []int{1, 49} {
		var phases [7][]time.Duration
		var dirty float64
		var resettled []int
		var kb []float64
		stood := 0
		for pair := 0; pair < 10; pair++ {
			batch, undo := localBatch(a.Net, nodes, trans, rng, size)
			for _, edits := range [][]incremental.Edit{batch, undo} {
				before := allocated()
				t0 := time.Now()
				st, err := a.Reanalyze(edits)
				total := time.Since(t0)
				kb = append(kb, float64(allocated()-before)/1024)
				if err != nil {
					t.Fatal(err)
				}
				ph := st.Phases
				sum := time.Duration(0)
				for i, d := range []time.Duration{ph.Apply, ph.Bind, ph.Settle, ph.Plan, ph.Derive, ph.Drain} {
					if d < 0 {
						t.Fatalf("phase %d took %v", i, d)
					}
					phases[i] = append(phases[i], d)
					sum += d
				}
				if ph.Apply == 0 || ph.Drain == 0 {
					t.Fatalf("unmeasured phase: %+v", ph)
				}
				if sum > total {
					t.Fatalf("phases add up to %v, the call took %v", sum, total)
				}
				phases[6] = append(phases[6], total)
				dirty += st.DirtyFrac
				resettled = append(resettled, st.Resettled)
				if st.CompileReason == "" {
					stood++
				} else {
					reasons[st.CompileReason]++
				}
			}
		}
		fmt.Fprintf(&out, "%-8d", size)
		for i := range phases {
			fmt.Fprintf(&out, " %8.2f", median(phases[i]).Seconds()*1e3)
		}
		slices.Sort(resettled)
		slices.Sort(kb)
		fmt.Fprintf(&out, " %8.2f %9d %8.0f %5d/20\n", 100*dirty/20, resettled[len(resettled)/2], kb[len(kb)/2], stood)
		if size == 1 && kb[len(kb)/2] >= compileKB/2 {
			t.Errorf("a one-edit generation allocates %.0f KB, one netlist.Compile %.0f KB: want under half", kb[len(kb)/2], compileKB)
		}
	}
	for r, n := range reasons {
		fmt.Fprintf(&out, "compiled again %d times: %s\n", n, r)
	}
	t.Logf("\n%s", out.String())
}

// TestMergeStreamsKeepsStreamOrder pins the boundary replay order: the
// merged streams come out in sched.Less order of (time, node, transition),
// and events of one stream with equal keys — a supersession won on the
// tie-break, same time, another slope — keep their propagation order.
func TestMergeStreamsKeepsStreamOrder(t *testing.T) {
	streams := [][]replayItem{
		{{3, tech.Rise, 1, 0.5}, {3, tech.Rise, 2, 0.9}, {3, tech.Rise, 2, 0.4}, {3, tech.Rise, 2, 0.7}},
		{{1, tech.Fall, 1, 0.2}, {1, tech.Fall, 2, 0.3}, {1, tech.Fall, 3, 0.1}},
		{},
		{{3, tech.Fall, 2, 0.6}},
	}
	rng := rand.New(rand.NewSource(5))
	for node := 10; node < 60; node++ {
		var s []replayItem
		tm := 0.0
		for k := rng.Intn(6); k > 0; k-- {
			if rng.Intn(2) == 0 {
				tm += float64(rng.Intn(3))
			}
			s = append(s, replayItem{node, tech.Transition(node % 2), tm, float64(k)})
		}
		streams = append(streams, s)
	}
	var items []replayItem
	var bounds []int
	for _, s := range streams {
		bounds = append(bounds, len(items))
		items = append(items, s...)
	}
	bounds = append(bounds, len(items))
	// A stable sort of the concatenation is the specification: streams never
	// share a (node, transition), so only one stream's own ties are ties.
	want := slices.Clone(items)
	slices.SortStableFunc(want, func(x, y replayItem) int {
		switch {
		case sched.Less(x.key(), y.key()):
			return -1
		case sched.Less(y.key(), x.key()):
			return 1
		}
		return 0
	})
	got := mergeStreams(items, bounds)
	if !slices.Equal(got, want) {
		t.Fatalf("merged\n%v\nwant\n%v", got, want)
	}
	var rise3 []replayItem
	for _, r := range got {
		if r.node == 3 && r.tr == tech.Rise {
			rise3 = append(rise3, r)
		}
	}
	if !slices.Equal(rise3, streams[0]) {
		t.Fatalf("node 3's rise stream replays as %v, recorded %v", rise3, streams[0])
	}
}

// TestFailedBatchLeavesAnalyzerUntouched pins the atomicity of an edit batch
// on the in-place path: from the second Reanalyze on the analyzer edits its
// own network, and a batch that fails anywhere — after edits that would have
// succeeded on their own — must leave that network, its generation, the
// snapshot, the stage database and every arrival as they were, and fail
// with Apply's error.
func TestFailedBatchLeavesAnalyzerUntouched(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(4)
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), fix, lb, Options{})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	ti := 0
	for a.Net.Trans[ti].IsWire() {
		ti++
	}
	if _, err := a.Reanalyze([]incremental.Edit{{Kind: incremental.Resize, Index: ti, W: 6e-6}}); err != nil {
		t.Fatal(err)
	}
	if a.Net == nw {
		t.Fatal("the first batch edited the caller's network")
	}
	nt := len(a.Net.Trans)
	victim := a.Net.Trans[ti]
	for _, tc := range []struct {
		name  string
		batch []incremental.Edit
	}{
		{"index past the end", []incremental.Edit{
			{Kind: incremental.AddCap, Node: victim.A.Name, Cap: 30e-15},
			{Kind: incremental.Resize, Index: nt, W: 6e-6}}},
		{"index a removal vacated", []incremental.Edit{
			{Kind: incremental.RemoveTrans, Index: ti},
			{Kind: incremental.RemoveTrans, Index: nt - 1}}},
		{"a wire moved into the hole", []incremental.Edit{
			{Kind: incremental.AddTrans, Dev: tech.RWire, A: victim.A.Name, B: "tap", R: 500},
			{Kind: incremental.RemoveTrans, Index: ti},
			{Kind: incremental.Resize, Index: ti, W: 6e-6}}},
		{"supply short", []incremental.Edit{
			{Kind: incremental.AddTrans, Dev: tech.NEnh, Gate: victim.Gate.Name, A: victim.A.Name, B: "tap"},
			{Kind: incremental.AddTrans, Dev: tech.NEnh, Gate: "tap", A: "vdd", B: "gnd"}}},
		{"retype a net that is not there", []incremental.Edit{
			{Kind: incremental.AddCap, Node: "tap", Cap: 1e-15},
			{Kind: incremental.Retype, Node: "tip", NodeKind: netlist.KindInput}}},
		{"bad kind on a created net", []incremental.Edit{
			{Kind: incremental.AddCap, Node: "tap", Cap: 1e-15},
			{Kind: incremental.Retype, Node: "tap", NodeKind: netlist.KindVdd}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := a.Net.Clone()
			gen, db, epoch, static := a.Net.Generation(), a.StageDB(), a.StageDB().Epoch, slices.Clone(a.static)
			events := slices.Clone(a.events)
			_, want := incremental.Apply(a.Net, tc.batch)
			_, err := a.Reanalyze(tc.batch)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("Reanalyze: %v, Apply: %v; want the same error from both", err, want)
			}
			if err := netlist.DiffNetworks(before, a.Net); err != nil {
				t.Fatalf("the failed batch changed the network: %v", err)
			}
			if a.Net.Generation() != gen || a.StageDB() != db || db.Epoch != epoch ||
				!slices.Equal(a.static, static) || !slices.Equal(a.events, events) {
				t.Fatal("the failed batch moved the analyzer")
			}
		})
	}
	// The created-net bookkeeping accepts what a real apply accepts: a net
	// the batch creates may be retyped later in the same batch.
	if _, err := a.Reanalyze([]incremental.Edit{
		{Kind: incremental.AddCap, Node: "tap", Cap: 1e-15},
		{Kind: incremental.Retype, Node: "tap", NodeKind: netlist.KindOutput}}); err != nil {
		t.Fatal(err)
	}
	fresh := buildAnalyzer(t, a.Net, a.Model, fix, lb, Options{})
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	requireMatchesFresh(t, "after the failed batches", a, fresh)
}

// TestRetypeOfSeededInputRejected: a batch that retypes a seeded input to
// anything but input is refused before its first edit — on the first batch,
// which would clone the caller's network, and on a later one, which edits
// in place — and leaves the network, its generation, the snapshot, the
// stage database and every arrival as they were. Retyping it to input
// stays allowed.
func TestRetypeOfSeededInputRejected(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(4)
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), fix, lb, Options{})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var seeded string
	for _, in := range nw.Inputs() {
		if _, ok := fix[in.Name]; !ok {
			seeded = in.Name
			break
		}
	}
	ti := 0
	for nw.Trans[ti].IsWire() {
		ti++
	}
	reject := func(path string) {
		t.Helper()
		before, net := a.Net.Clone(), a.Net
		generation, db, epoch, static := a.Net.Generation(), a.StageDB(), a.StageDB().Epoch, slices.Clone(a.static)
		events := slices.Clone(a.events)
		_, err := a.Reanalyze([]incremental.Edit{
			{Kind: incremental.Resize, Index: ti, W: 7e-6},
			{Kind: incremental.Retype, Node: seeded, NodeKind: netlist.KindNormal}})
		if err == nil || !strings.Contains(err.Error(), seeded) {
			t.Fatalf("%s: Reanalyze = %v, want an error naming %s", path, err, seeded)
		}
		if err := netlist.DiffNetworks(before, a.Net); err != nil {
			t.Fatalf("%s: the rejected batch changed the network: %v", path, err)
		}
		if a.Net != net || a.Net.Generation() != generation || a.StageDB() != db || db.Epoch != epoch ||
			!slices.Equal(a.static, static) || !slices.Equal(a.events, events) {
			t.Fatalf("%s: the rejected batch moved the analyzer", path)
		}
	}
	reject("first batch")
	if _, err := a.Reanalyze([]incremental.Edit{{Kind: incremental.Resize, Index: ti, W: 6e-6}}); err != nil {
		t.Fatal(err)
	}
	reject("in place")
	if _, err := a.Reanalyze([]incremental.Edit{{Kind: incremental.Retype, Node: seeded, NodeKind: netlist.KindInput}}); err != nil {
		t.Fatalf("retyping a seeded input to input: %v", err)
	}
}

// TestKeptStateMatchesFreshBuild pins what an editing analyzer keeps between
// batches against what a fresh build of the edited network gives. chip:8
// goes through a mixed stream — loads on an existing and on a new net, a
// resize, an added device and the removal of a mid-index one (the last
// device moves into its index), an empty batch and a retype, with a Run-only
// analyzer adopting the database in between — and after every batch the
// resident compile deep-equals netlist.Compile of the network, the stage
// database's view equals one built fresh (stage.DB.CheckView), and every
// arrival equals a fresh Run's. A batch that changes nothing the compile
// holds must keep the compile and the view, and its CompileReason must say
// so.
func TestKeptStateMatchesFreshBuild(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	fix, lb := gen.ChipDirectives(8)
	nw, err := gen.Chip(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	build := func(nw *netlist.Network) *Analyzer {
		a := buildAnalyzer(t, nw, m, fix, lb, Options{})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := build(nw)
	// step applies one batch; reason is a word the CompileReason must hold,
	// "" for a compile that must stand.
	step := func(name, reason string, batch []incremental.Edit) {
		t.Helper()
		cn := a.cnet
		st, err := a.Reanalyze(batch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reason == "" {
			if st.CompileReason != "" || a.cnet != cn {
				t.Fatalf("%s: the compile did not stand (%q)", name, st.CompileReason)
			}
			// A view over a new compile is built when the drain first
			// enumerates; one kept over a standing compile was patched.
			if !keepsView(t, a.StageDB()) {
				t.Fatalf("%s: the stage database dropped its enumeration view", name)
			}
		} else if !strings.Contains(st.CompileReason, reason) {
			t.Fatalf("%s: compile reason %q, want one naming %q", name, st.CompileReason, reason)
		}
		if !reflect.DeepEqual(a.cnet, netlist.Compile(a.Net)) {
			t.Fatalf("%s: the resident compile differs from a fresh one", name)
		}
		if err := a.StageDB().CheckView(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMatchesFresh(t, name, a, build(a.Net))
	}
	nodes, trans := localTargets(nw)
	node := func(k int) string { return nw.Nodes[nodes[k*len(nodes)/7]].Name }
	dev := func(k int) *netlist.Trans { return a.Net.Trans[trans[k*len(trans)/7]] }
	mid := len(nw.Trans) / 2
	for nw.Trans[mid].IsWire() || nw.Trans[mid].A.IsSource() {
		mid++
	}

	step("first load", "first", []incremental.Edit{{Kind: incremental.AddCap, Node: node(0), Cap: 20e-15}})
	step("load", "", []incremental.Edit{{Kind: incremental.AddCap, Node: node(1), Cap: 30e-15},
		{Kind: incremental.AddCap, Node: node(2), Cap: -5e-15}})
	d := dev(3)
	step("resize", "", []incremental.Edit{{Kind: incremental.Resize, Index: d.Index, W: 1.5 * d.W}})
	// A Run-only analyzer adopting the database drops the view the editor
	// kept (it hands its own compile); the editor's next enumeration builds
	// the view again.
	adopter := buildAnalyzer(t, a.Net, m, fix, lb, Options{DB: a.StageDB()})
	if err := adopter.Run(); err != nil || adopter.StageDB() != a.StageDB() {
		t.Fatalf("the adopting run failed (%v) or rejected the database", err)
	}
	step("load on a new net", "created", []incremental.Edit{{Kind: incremental.AddCap, Node: "stub", Cap: 10e-15}})
	d = dev(4)
	step("add", "added or removed", []incremental.Edit{
		{Kind: incremental.AddTrans, Dev: d.Type, Gate: d.Gate.Name, A: d.A.Name, B: d.B.Name, W: d.W, L: d.L}})
	d = dev(5)
	step("resize and load", "", []incremental.Edit{{Kind: incremental.Resize, Index: d.Index, W: 0.8 * d.W},
		{Kind: incremental.AddCap, Node: node(5), Cap: 15e-15}})
	step("delete mid-index", "added or removed", []incremental.Edit{{Kind: incremental.RemoveTrans, Index: mid}})
	step("empty", "", nil)
	step("retype", "retype", []incremental.Edit{{Kind: incremental.Retype, Node: node(6), NodeKind: netlist.KindOutput}})
	step("load after the retype", "", []incremental.Edit{{Kind: incremental.AddCap, Node: node(1), Cap: -30e-15}})
}

// keepsView reports whether db holds a built enumeration view (its field v;
// see holdsView).
func keepsView(t *testing.T, db *stage.DB) bool {
	t.Helper()
	f := reflect.ValueOf(db).Elem().FieldByName("v")
	if !f.IsValid() {
		t.Fatal("stage.DB has no field \"v\"")
	}
	return !f.IsNil()
}
