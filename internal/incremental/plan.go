// Invalidation planning: widen an edit batch's seed set to whole
// channel-connected groups, fold in sensitization changes, close over
// gate fanout, and emit the dirty maps stage.DB.Derive and the analyzer's
// incremental re-propagation consume.
package incremental

import (
	"slices"

	"repro/internal/netlist"
	"repro/internal/switchsim"
)

// Plan is the computed invalidation for one applied batch.
//
// The unit of dirtiness is the component: the channel-connected groups of
// non-source nodes, plus one singleton component per non-rail source.
// Inputs need components of their own because they are not inert the way
// rails are — a pass path can drive an input node (the analyzer improves
// any non-rail node), and an input's own arrival fans out through both its
// gate connections and its channel terminals. Rails stay outside: their
// "arrival" can never change.
//
// Components are labelled on demand, outward from the batch's seeds and
// along the gate-fanout closure, so a plan costs what the batch dirties: a
// node no walk reached has no label and is by construction not dirty.
type Plan struct {
	res *Result

	// comp[i] is 1 + the component of node i, 0 while unlabelled (rails
	// stay so). Component c's members are memb[start[c]:start[c+1]].
	comp  []int32
	memb  []int32
	start []int32

	dbDirty   []bool // per component: stage enumerations stale
	timeDirty []bool // per component: arrival times stale (downstream closure)

	// DirtyTrans / DBDirtyNode are the per-index maps stage.DB.Derive
	// takes (new-generation indexes).
	DirtyTrans  []bool
	DBDirtyNode []bool

	// dirtyNode marks nodes whose arrivals the analyzer must reset: the
	// members of time-dirty components plus nodes new in this generation.
	// Dirty lists them, in no particular order.
	dirtyNode []bool
	Dirty     []int

	// DirtyNodes is len(Dirty); Frac is DirtyNodes over the non-rail node
	// count (the fallback-threshold metric). TotalNodes counts the
	// non-source nodes of the new generation.
	DirtyNodes int
	TotalNodes int
	nonRail    int
	Frac       float64

	// ForceFull reports that the batch cannot be applied incrementally
	// (a Retype changed which nodes are strong sources).
	ForceFull bool
}

// Plan computes the invalidation plan for the applied batch. oldStatic
// and newStatic are the settled switch-level snapshots of the previous
// and new generations under the analysis's fixed/seeded inputs; nodes
// whose static value changed poison the enumerations of every component
// containing a device they gate. Either snapshot may be nil (worst-case
// sensitization), in which case only structural seeds apply.
func (r *Result) Plan(oldStatic, newStatic []switchsim.Value) *Plan {
	nw := r.Net
	p := &Plan{
		res:         r,
		ForceFull:   r.forceFull,
		comp:        make([]int32, len(nw.Nodes)),
		start:       []int32{0},
		DirtyTrans:  make([]bool, len(nw.Trans)),
		DBDirtyNode: make([]bool, len(nw.Nodes)),
		dirtyNode:   make([]bool, len(nw.Nodes)),
	}
	for _, n := range nw.Nodes {
		if !n.IsRail() {
			p.nonRail++
			if !n.IsSource() {
				p.TotalNodes++
			}
		}
	}

	// Structural seeds from the batch. An edit touching a non-rail source
	// (capacitance on an input, a device terminal on one) also perturbs
	// the enumerations of every component the source borders, because the
	// source's fan-out paths read their structure. Rails are different:
	// enumeration never extends through a rail, so an edit at a rail
	// terminal only perturbs the component holding the edited element
	// itself — which its other seeds already cover.
	for _, idx := range r.seedNodes {
		n := nw.Nodes[idx]
		p.dirtyComp(n)
		if n.IsSource() && !n.IsRail() {
			for _, t := range n.Terms {
				if o := t.Other(n); o != nil {
					p.dirtyComp(o)
				}
			}
		}
	}
	// Sensitization seeds: a node whose settled value changed reshapes
	// the conduction oracle for every device it gates, wherever that
	// device's channel lives.
	if oldStatic != nil && newStatic != nil {
		for i := range min(len(oldStatic), len(newStatic)) {
			if oldStatic[i] == newStatic[i] {
				continue
			}
			n := nw.Nodes[i]
			p.dirtyComp(n)
			for _, t := range n.Gates {
				p.dirtyComp(t.A)
				p.dirtyComp(t.B)
			}
		}
	}

	// The maps Derive takes, filled from the members of the db-dirty
	// components: every device with a channel terminal in one, every member,
	// and every source bordering one — a source's fan-out enumerations (From
	// entries) read the structure and sensitization of each adjacent
	// component. The same walk collects the time-dirty seeds: every db-dirty
	// component, plus the non-rail sources bordering one — a stage
	// enumerated inside a db-dirty group can target the adjacent source
	// (pass paths may end at an input), so its arrival may move even though
	// the source itself was not edited. Components labelled during the walk
	// are clean.
	var seeds []int
	for c := 0; c < len(p.dbDirty); c++ {
		if !p.dbDirty[c] {
			continue
		}
		seeds = append(seeds, c)
		for _, i := range p.members(c) {
			n := nw.Nodes[i]
			p.DBDirtyNode[i] = true
			for _, t := range n.Terms {
				p.DirtyTrans[t.Index] = true
				if o := t.Other(n); o != nil && o.IsSource() {
					p.DBDirtyNode[o.Index] = true
					if !o.IsRail() {
						seeds = append(seeds, p.compOf(o))
					}
				}
			}
		}
	}
	for _, idx := range r.seedTrans {
		if idx < len(p.DirtyTrans) {
			p.DirtyTrans[idx] = true
		}
	}
	// Nodes new in this generation are dirty whatever their component.
	for i := r.oldNodes; i < len(nw.Nodes); i++ {
		p.DBDirtyNode[i] = true
		p.markNode(i)
	}
	p.spread(seeds)
	p.refresh()
	return p
}

// Widen marks the components containing the given node indexes time-dirty
// and re-closes the downstream closure, growing the analyzer-facing dirty
// set (Dirty, DirtyNodes, Frac). DB dirtiness is deliberately
// untouched: the caller widens regions whose structure is intact but whose
// recorded timing must be recomputed from scratch — a hierarchically
// stamped instance detaching to flat analysis carries no replay history,
// so its whole interior re-enters the dirty set even when the edit only
// grazed it.
func (p *Plan) Widen(nodeIdxs []int) {
	var seeds []int
	for _, idx := range nodeIdxs {
		if idx >= 0 && idx < len(p.comp) {
			seeds = append(seeds, p.compOf(p.res.Net.Nodes[idx]))
		}
	}
	if p.spread(seeds) {
		p.refresh()
	}
}

// spread marks the given components (-1 entries ignored) time-dirty and
// closes the set downstream, reporting whether it grew: arrivals in a
// component gated by a dirty component's node may move (in either
// direction), and so on transitively; a dirty source additionally fans out
// through its channel terminals (its own transition rides through pass
// devices into the neighbouring groups). Components are never dirtied
// "backwards" — there are no timing edges from a component into its gating
// nodes.
func (p *Plan) spread(seeds []int) bool {
	nw := p.res.Net
	var queue []int
	mark := func(c int) {
		if c >= 0 && !p.timeDirty[c] {
			p.timeDirty[c] = true
			queue = append(queue, c)
			for _, i := range p.members(c) {
				p.markNode(int(i))
			}
		}
	}
	for _, c := range seeds {
		mark(c)
	}
	grew := len(queue) > 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, idx := range p.members(c) {
			n := nw.Nodes[idx]
			for _, t := range n.Gates {
				mark(p.compOf(t.A))
				mark(p.compOf(t.B))
			}
			if n.IsSource() {
				for _, t := range n.Terms {
					if o := t.Other(n); o != nil {
						mark(p.compOf(o))
					}
				}
			}
		}
	}
	return grew
}

// markNode adds node i to the analyzer-facing dirty set.
func (p *Plan) markNode(i int) {
	if !p.dirtyNode[i] {
		p.dirtyNode[i] = true
		p.Dirty = append(p.Dirty, i)
	}
}

// refresh recomputes the dirty count and fraction from the dirty set.
func (p *Plan) refresh() {
	p.DirtyNodes = len(p.Dirty)
	if p.nonRail > 0 {
		p.Frac = float64(p.DirtyNodes) / float64(p.nonRail)
	}
	if p.ForceFull {
		p.Frac = 1
	}
}

// dirtyComp marks the component containing n db-dirty (no-op for rails).
func (p *Plan) dirtyComp(n *netlist.Node) {
	if c := p.compOf(n); c >= 0 {
		p.dbDirty[c] = true
	}
}

// members lists the node indexes of component c.
func (p *Plan) members(c int) []int32 { return p.memb[p.start[c]:p.start[c+1]] }

// compOf returns the component of n (-1 for a rail), labelling it first if
// no walk has reached it yet: the maximal set of non-source nodes joined to
// n by transistor channels, or n alone when it is a non-rail source. Every
// device kind connects (even FlowOff and definitely-off devices — their
// geometry still loads their terminals), which makes the components a
// conservative superset of any oracle's conduction graph, exactly what
// invalidation needs.
func (p *Plan) compOf(n *netlist.Node) int {
	if c := p.comp[n.Index]; c != 0 {
		return int(c) - 1
	}
	if n.IsRail() {
		return -1
	}
	nw := p.res.Net
	label := int32(len(p.dbDirty) + 1)
	p.comp[n.Index] = label
	first := len(p.memb)
	p.memb = append(p.memb, int32(n.Index))
	if !n.IsSource() {
		for qi := first; qi < len(p.memb); qi++ {
			cur := nw.Nodes[p.memb[qi]]
			for _, t := range cur.Terms {
				o := t.Other(cur)
				if o == nil || o.IsSource() || p.comp[o.Index] != 0 {
					continue
				}
				p.comp[o.Index] = label
				p.memb = append(p.memb, int32(o.Index))
			}
		}
	}
	p.start = append(p.start, int32(len(p.memb)))
	p.dbDirty = append(p.dbDirty, false)
	p.timeDirty = append(p.timeDirty, false)
	return int(label) - 1
}

// NodeDirty reports whether node index i needs its arrival reset.
func (p *Plan) NodeDirty(i int) bool {
	return i < len(p.dirtyNode) && p.dirtyNode[i]
}

// Boundary lists, in index order, the clean nodes whose events reach into
// the dirty region: a node gating a device (one that responds to its gate)
// with a channel terminal in a time-dirty component, or a chip input whose
// channel leads directly into one — its From stages must re-apply.
func (p *Plan) Boundary() []int {
	nw := p.res.Net
	var out []int
	for c, dirty := range p.timeDirty {
		if !dirty {
			continue
		}
		for _, i := range p.members(c) {
			n := nw.Nodes[i]
			for _, t := range n.Terms {
				if !t.AlwaysOn() && !p.NodeDirty(t.Gate.Index) {
					out = append(out, t.Gate.Index)
				}
				if o := t.Other(n); o != nil && o.Kind == netlist.KindInput && !p.NodeDirty(o.Index) {
					out = append(out, o.Index)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
