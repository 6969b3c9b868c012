package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
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

// TestCarriedStaticMatchesFreshSettle pins the carry rule of the static
// sensitization snapshot: Reanalyze keeps the previous generation's snapshot
// only when a from-power-on settle of the edited network would reproduce it.
// The streams mix ordinary load/resize batches with ones built to move a
// node across switchsim.K2CapFloor in either direction — by capacitance and
// by device geometry — and a load that names a new node. On the bus, whose
// precharge state is carried in as stored charge, a K1 stack node that
// becomes K2 fights the bus to X instead of being overwritten by it, so a
// carry rule without the size-class check leaves a stale snapshot there.
func TestCarriedStaticMatchesFreshSettle(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	chipFix, chipLB := gen.ChipDirectives(8)
	for _, fam := range []struct {
		name    string
		build   func() (*netlist.Network, error)
		fix     map[string]string
		lb      []string
		charged bool // start from stored charge: precharged nodes high, other storage low
	}{
		{"chip8", func() (*netlist.Network, error) { return gen.Chip(p, 8) }, chipFix, chipLB, false},
		{"manchester", func() (*netlist.Network, error) { return gen.ManchesterAdder(p, 8) }, nil, nil, false},
		// Driver 0 is enabled with its data low, the others are off: the bus
		// and stk_0 share charge and nothing drives them.
		{"bus", func() (*netlist.Network, error) { return gen.PrechargedBus(p, 3) },
			map[string]string{"en0": "1", "d0": "0", "en1": "0", "en2": "0"}, nil, true},
	} {
		t.Run(fam.name, func(t *testing.T) {
			nw, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			build := func(next *netlist.Network) *Analyzer {
				a := buildAnalyzer(t, next, m, fam.fix, fam.lb, Options{})
				if fam.charged {
					// Nets later generations add carry no charge.
					a.initial = make([]switchsim.Value, len(nw.Nodes))
					for i, n := range nw.Nodes {
						switch {
						case n.Precharged:
							a.initial[i] = switchsim.V1
						case n.IsSource():
							a.initial[i] = switchsim.VX
						}
					}
				}
				if err := a.Run(); err != nil {
					t.Fatal(err)
				}
				return a
			}
			a := build(nw)
			rng := rand.New(rand.NewSource(7))

			// k1Node picks a storage node below the floor, with the
			// capacitance that lifts it 1 fF above.
			k1Node := func() (*netlist.Node, float64) {
				sizes := switchsim.NodeSizes(a.Net)
				var k1 []*netlist.Node
				for i, n := range a.Net.Nodes {
					if sizes[i] == switchsim.SK1 && len(n.Terms) > 0 {
						k1 = append(k1, n)
					}
				}
				if len(k1) == 0 {
					t.Fatal("no K1 node left")
				}
				n := k1[rng.Intn(len(k1))]
				return n, switchsim.K2CapFloor - a.Net.NodeCap(n) + 1e-15
			}
			var carried, settled, moved int
			var undo []incremental.Edit
			for g := 0; g < 30; g++ {
				var batch []incremental.Edit
				label := fmt.Sprintf("generation %d", g)
				wantCarried := true
				switch {
				case undo != nil:
					batch, undo = undo, nil
					label += " (inverse)"
					wantCarried = false // only the floor crossings have one
				case g%10 == 0: // across the floor by capacitance, and back
					n, c := k1Node()
					batch = []incremental.Edit{{Kind: incremental.AddCap, Node: n.Name, Cap: c}}
					undo = []incremental.Edit{{Kind: incremental.AddCap, Node: n.Name, Cap: -c}}
					label += ": " + n.Name + " loaded across the floor"
					wantCarried = false
				case g%10 == 2: // across the floor by geometry, and back
					n, c := k1Node()
					// Any device on the node will do: its gate capacitance if
					// the node gates it, its diffusion if the node is a
					// channel terminal. Both are linear in W.
					var dev *netlist.Trans
					var share float64
					for _, d := range n.Terms {
						if !d.IsWire() {
							dev, share = d, a.Net.Tech.DiffCap(d.W)
						}
					}
					for _, d := range n.Gates {
						if !d.IsWire() {
							dev, share = d, a.Net.Tech.GateCap(d.W, d.L)
						}
					}
					if dev == nil {
						t.Fatalf("no device on %s", n.Name)
					}
					batch = []incremental.Edit{{Kind: incremental.Resize, Index: dev.Index, W: dev.W * (1 + 1.05*c/share)}}
					undo = []incremental.Edit{{Kind: incremental.Resize, Index: dev.Index, W: dev.W}}
					label += ": " + n.Name + " widened across the floor"
					wantCarried = false
				case g%10 == 4: // a load on a net that does not exist yet
					batch = []incremental.Edit{{Kind: incremental.AddCap, Node: fmt.Sprintf("stub_%d", g), Cap: 12e-15}}
					wantCarried = false
				default:
					for i := 1 + rng.Intn(4); i > 0; i-- {
						ti := rng.Intn(len(a.Net.Trans))
						for a.Net.Trans[ti].IsWire() {
							ti = (ti + 1) % len(a.Net.Trans)
						}
						tr := a.Net.Trans[ti]
						if n := tr.A; rng.Intn(2) == 0 && !n.IsRail() {
							batch = append(batch, incremental.Edit{Kind: incremental.AddCap, Node: n.Name, Cap: 1e-15})
						} else {
							batch = append(batch, incremental.Edit{Kind: incremental.Resize, Index: ti, W: tr.W * 1.01})
						}
					}
					// Small steps, but a node that sits just under the floor
					// may still cross: expect whatever the sizes say.
					res, err := incremental.Apply(a.Net, batch)
					if err != nil {
						t.Fatal(err)
					}
					wantCarried = slices.Equal(switchsim.NodeSizes(a.Net), switchsim.NodeSizes(res.Net))
				}
				before := a.static
				st, err := a.Reanalyze(batch)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st.StaticCarried != wantCarried {
					t.Errorf("%s: StaticCarried = %v, want %v", label, st.StaticCarried, wantCarried)
				}
				if st.StaticCarried {
					carried++
					if st.Phases.Settle > time.Millisecond {
						t.Errorf("%s: carried, yet the settle phase took %v", label, st.Phases.Settle)
					}
				} else {
					settled++
				}
				fresh := build(a.Net)
				if !slices.Equal(a.static, fresh.static) {
					for i := range fresh.static {
						if a.static[i] != fresh.static[i] {
							t.Fatalf("%s: static value of %s is %v, a fresh settle gives %v (carried: %v)",
								label, a.Net.Nodes[i].Name, a.static[i], fresh.static[i], st.StaticCarried)
						}
					}
				}
				if !slices.Equal(before, fresh.static[:len(before)]) {
					moved++
				}
				requireMatchesFresh(t, label, a, fresh)
			}
			if carried == 0 || settled == 0 {
				t.Errorf("%d batches carried the snapshot, %d settled: both paths must run", carried, settled)
			}
			if fam.charged && moved == 0 {
				t.Error("no floor crossing changed the snapshot: the size-class check was never what kept it right")
			}
			t.Logf("%d carried, %d settled, %d changed the snapshot", carried, settled, moved)
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

// TestReanalyzePhases prints where a generation's wall time goes, phase by
// phase, for a one-edit and a 49-edit batch (the ends of the benchmark's
// batch-size ladder) on chip:16: the median over ten batch/inverse pairs.
// It asserts only that the phases are measured and account for the call.
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
	var out strings.Builder
	fmt.Fprintf(&out, "chip:%d, %d transistors, median of 20 generations (ms)\n", width, len(nw.Trans))
	fmt.Fprintf(&out, "%-8s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"edits", "apply", "bind", "settle", "plan", "derive", "drain", "total", "dirty%", "carried")
	rng := rand.New(rand.NewSource(1))
	nodes, trans := localTargets(nw)
	for _, size := range []int{1, 49} {
		var phases [7][]time.Duration
		var dirty float64
		carried := 0
		for pair := 0; pair < 10; pair++ {
			batch, undo := localBatch(a.Net, nodes, trans, rng, size)
			for _, edits := range [][]incremental.Edit{batch, undo} {
				t0 := time.Now()
				st, err := a.Reanalyze(edits)
				total := time.Since(t0)
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
				if st.StaticCarried {
					carried++
				}
			}
		}
		fmt.Fprintf(&out, "%-8d", size)
		for i := range phases {
			fmt.Fprintf(&out, " %8.2f", median(phases[i]).Seconds()*1e3)
		}
		fmt.Fprintf(&out, " %8.2f %5d/20\n", 100*dirty/20, carried)
	}
	t.Logf("\n%s", out.String())
}
