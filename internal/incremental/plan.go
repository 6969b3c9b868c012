// Invalidation planning: widen an edit batch's seed set to whole
// channel-connected groups, fold in sensitization changes, close over
// gate fanout, and emit the dirty maps stage.DB.Derive and the analyzer's
// incremental re-propagation consume.
package incremental

import (
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
// gate connections and its channel terminals. Rails stay outside (comp -1):
// their "arrival" can never change.
type Plan struct {
	res *Result

	// comp[i] is the component of node i, -1 for rails.
	comp  []int
	nComp int

	dbDirty   []bool // per component: stage enumerations stale
	timeDirty []bool // per component: arrival times stale (downstream closure)

	// DirtyTrans / DBDirtyNode are the per-index maps stage.DB.Derive
	// takes (new-generation indexes).
	DirtyTrans  []bool
	DBDirtyNode []bool

	// dirtyNode marks nodes whose arrivals the analyzer must reset: the
	// members of time-dirty components plus nodes new in this generation.
	dirtyNode []bool

	// DirtyNodes counts dirtyNode entries; Frac is DirtyNodes over the
	// non-rail node count (the fallback-threshold metric).
	DirtyNodes int
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
	p := &Plan{res: r, ForceFull: r.forceFull}
	p.components()

	p.dbDirty = make([]bool, p.nComp)
	p.timeDirty = make([]bool, p.nComp)

	// Structural seeds from the batch. An edit touching a non-rail source
	// (capacitance on an input, a device terminal on one) also perturbs
	// the enumerations of every component the source borders, because the
	// source's fan-out paths read their structure. Rails are different:
	// enumeration never extends through a rail, so an edit at a rail
	// terminal only perturbs the component holding the edited element
	// itself — which its other seeds already cover.
	for idx := range r.seedNodes {
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
		limit := len(oldStatic)
		if len(newStatic) < limit {
			limit = len(newStatic)
		}
		for i := 0; i < limit; i++ {
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

	// Time-dirty seeds: every db-dirty component, plus non-rail sources
	// bordering one — a stage enumerated inside a db-dirty group can
	// target the adjacent source (pass paths may end at an input), so its
	// arrival may move even though the source itself was not edited.
	var seeds []int
	for c := range p.dbDirty {
		if p.dbDirty[c] {
			seeds = append(seeds, c)
		}
	}
	for _, t := range nw.Trans {
		ca, cb := p.comp[t.A.Index], p.comp[t.B.Index]
		if (ca >= 0 && p.dbDirty[ca]) || (cb >= 0 && p.dbDirty[cb]) {
			if t.A.IsSource() && !t.A.IsRail() {
				seeds = append(seeds, ca)
			}
			if t.B.IsSource() && !t.B.IsRail() {
				seeds = append(seeds, cb)
			}
		}
	}
	p.spread(seeds)

	// Per-index maps.
	p.DirtyTrans = make([]bool, len(nw.Trans))
	for _, t := range nw.Trans {
		if (p.comp[t.A.Index] >= 0 && p.dbDirty[p.comp[t.A.Index]]) ||
			(p.comp[t.B.Index] >= 0 && p.dbDirty[p.comp[t.B.Index]]) {
			p.DirtyTrans[t.Index] = true
		}
	}
	for idx := range r.seedTrans {
		if idx < len(p.DirtyTrans) {
			p.DirtyTrans[idx] = true
		}
	}
	p.DBDirtyNode = make([]bool, len(nw.Nodes))
	p.dirtyNode = make([]bool, len(nw.Nodes))
	for _, n := range nw.Nodes {
		c := p.comp[n.Index]
		if n.IsSource() {
			// A source's fan-out enumerations (From entries) read the
			// structure and sensitization of every adjacent component.
			for _, t := range n.Terms {
				o := t.Other(n)
				if o == nil {
					continue
				}
				if oc := p.comp[o.Index]; oc >= 0 && p.dbDirty[oc] {
					p.DBDirtyNode[n.Index] = true
					break
				}
			}
		}
		if c >= 0 && (p.dbDirty[c] || n.Index >= r.oldNodes) {
			p.DBDirtyNode[n.Index] = true
		}
	}
	p.refresh()
	return p
}

// Widen marks the components containing the given node indexes time-dirty
// and re-closes the downstream closure, growing the analyzer-facing dirty
// maps (dirtyNode, DirtyNodes, Frac). DB dirtiness is deliberately
// untouched: the caller widens regions whose structure is intact but whose
// recorded timing must be recomputed from scratch — a hierarchically
// stamped instance detaching to flat analysis carries no replay history,
// so its whole interior re-enters the dirty set even when the edit only
// grazed it.
func (p *Plan) Widen(nodeIdxs []int) {
	var seeds []int
	for _, idx := range nodeIdxs {
		if idx >= 0 && idx < len(p.comp) {
			seeds = append(seeds, p.comp[idx])
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
		}
	}
	for _, c := range seeds {
		mark(c)
	}
	if len(queue) == 0 {
		return false
	}
	members := p.memberLists()
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, idx := range members[c] {
			n := nw.Nodes[idx]
			for _, t := range n.Gates {
				mark(p.comp[t.A.Index])
				mark(p.comp[t.B.Index])
			}
			if n.IsSource() {
				for _, t := range n.Terms {
					if o := t.Other(n); o != nil {
						mark(p.comp[o.Index])
					}
				}
			}
		}
	}
	return true
}

// refresh rebuilds the analyzer-facing view — dirtyNode, DirtyNodes, Frac —
// from the time-dirty components; nodes new in this generation are dirty
// whatever their component.
func (p *Plan) refresh() {
	nonRail := 0
	p.DirtyNodes = 0
	for i, c := range p.comp {
		if c < 0 {
			continue // rail: arrivals never change
		}
		nonRail++
		if p.timeDirty[c] || i >= p.res.oldNodes {
			p.dirtyNode[i] = true
			p.DirtyNodes++
		}
	}
	if nonRail > 0 {
		p.Frac = float64(p.DirtyNodes) / float64(nonRail)
	}
	if p.ForceFull {
		p.Frac = 1
	}
}

// dirtyComp marks the component containing n db-dirty (no-op for rails).
func (p *Plan) dirtyComp(n *netlist.Node) {
	if c := p.comp[n.Index]; c >= 0 {
		p.dbDirty[c] = true
	}
}

// components labels the plan's components: maximal sets of non-source
// nodes joined by transistor channels, plus a singleton per non-rail
// source. Every device kind connects (even FlowOff and definitely-off
// devices — their geometry still loads their terminals), which makes the
// components a conservative superset of any oracle's conduction graph,
// exactly what invalidation needs.
func (p *Plan) components() {
	nw := p.res.Net
	p.comp = make([]int, len(nw.Nodes))
	for i := range p.comp {
		p.comp[i] = -1
	}
	var q []*netlist.Node
	for _, n := range nw.Nodes {
		if p.comp[n.Index] >= 0 {
			continue
		}
		if n.IsSource() {
			if !n.IsRail() {
				p.comp[n.Index] = p.nComp
				p.nComp++
			}
			continue
		}
		c := p.nComp
		p.nComp++
		p.comp[n.Index] = c
		q = append(q[:0], n)
		for len(q) > 0 {
			cur := q[0]
			q = q[1:]
			for _, t := range cur.Terms {
				o := t.Other(cur)
				if o == nil || o.IsSource() || p.comp[o.Index] >= 0 {
					continue
				}
				p.comp[o.Index] = c
				q = append(q, o)
			}
		}
	}
}

// memberLists groups node indexes by component.
func (p *Plan) memberLists() [][]int {
	members := make([][]int, p.nComp)
	for i, c := range p.comp {
		if c >= 0 {
			members[c] = append(members[c], i)
		}
	}
	return members
}

// NodeDirty reports whether node index i needs its arrival reset.
func (p *Plan) NodeDirty(i int) bool {
	return i < len(p.dirtyNode) && p.dirtyNode[i]
}

// TransTouchesDirty reports whether either channel terminal of t lies in
// a time-dirty component — i.e. whether a gate event on t can change any
// stale arrival.
func (p *Plan) TransTouchesDirty(t *netlist.Trans) bool {
	if c := p.comp[t.A.Index]; c >= 0 && p.timeDirty[c] {
		return true
	}
	if c := p.comp[t.B.Index]; c >= 0 && p.timeDirty[c] {
		return true
	}
	return false
}

// SourceTouchesDirty reports whether strong-source node n channels
// directly into a time-dirty component (its From stages must re-apply).
func (p *Plan) SourceTouchesDirty(n *netlist.Node) bool {
	for _, t := range n.Terms {
		o := t.Other(n)
		if o == nil {
			continue
		}
		if c := p.comp[o.Index]; c >= 0 && p.timeDirty[c] {
			return true
		}
	}
	return false
}
