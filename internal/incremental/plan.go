// Invalidation planning: widen an edit batch's seed set to whole
// channel-connected groups, fold in sensitization changes, close over
// gate fanout, and emit the dirty lists stage.DB.Advance and the analyzer's
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
// node no walk reached has no label and is by construction not dirty. The
// per-index arrays are the only whole-network allocations, and a plan
// handed back to Result.Plan for the next batch lends them to its
// successor, cleared over the entries it set.
type Plan struct {
	nw *netlist.Network

	// comp[i] is 1 + the component of node i, 0 while unlabelled (rails
	// stay so). Component c's members are memb[start[c]:start[c+1]].
	comp  []int32
	memb  []int32
	start []int32

	dbDirty   []bool // per component: stage enumerations stale
	timeDirty []bool // per component: arrival times stale (downstream closure)

	// StaleTrans / StaleNodes list, by new-generation index and in no
	// particular order, the transistors and nodes whose stage.DB entries
	// are stale (stage.Changes.Trans and Nodes). A transistor may be
	// listed more than once.
	StaleTrans []int
	StaleNodes []int

	// Resensitized lists the nodes whose settled static value changed: the
	// devices they gate conduct differently under the new snapshot.
	Resensitized []int

	// Dirty lists, in no particular order, the nodes whose arrivals the
	// analyzer must reset: the members of time-dirty components plus nodes
	// new in this generation. flags marks them (flagDirty) and the nodes
	// listed in StaleNodes (flagStale).
	Dirty []int
	flags []uint8

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
// sensitization, or a snapshot the batch left standing), in which case
// only structural seeds apply.
//
// reuse, if not nil, is the plan of the batch before this one over the
// same network: the new plan takes over its arrays and returns it, and
// the earlier plan is no longer valid. Nil allocates a new plan.
func (r *Result) Plan(oldStatic, newStatic []switchsim.Value, reuse *Plan) *Plan {
	nw := r.Net
	p := reuse
	if p == nil || p.nw != nw {
		p = &Plan{}
	} else {
		p.clear()
	}
	counted := p.nw != nil && r.oldNodes == len(nw.Nodes) && !r.forceFull
	p.nw, p.ForceFull = nw, r.forceFull
	p.comp = resize(p.comp, len(nw.Nodes))
	p.flags = resize(p.flags, len(nw.Nodes))
	p.start = append(p.start, 0)
	// The node counts change only with the node set or a node's kind.
	if !counted {
		p.nonRail, p.TotalNodes = 0, 0
		for _, n := range nw.Nodes {
			if !n.IsRail() {
				p.nonRail++
				if !n.IsSource() {
					p.TotalNodes++
				}
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
			p.Resensitized = append(p.Resensitized, i)
			n := nw.Nodes[i]
			p.dirtyComp(n)
			for _, t := range n.Gates {
				p.dirtyComp(t.A)
				p.dirtyComp(t.B)
			}
		}
	}

	// The lists stage.DB.Advance takes, filled from the members of the
	// db-dirty components: every device with a channel terminal in one,
	// every member, and every source bordering one — a source's fan-out
	// enumerations (From entries) read the structure and sensitization of
	// each adjacent component. The same walk collects the time-dirty seeds:
	// every db-dirty component, plus the non-rail sources bordering one — a
	// stage enumerated inside a db-dirty group can target the adjacent
	// source (pass paths may end at an input), so its arrival may move even
	// though the source itself was not edited. Components labelled during
	// the walk are clean.
	var seeds []int
	for c := 0; c < len(p.dbDirty); c++ {
		if !p.dbDirty[c] {
			continue
		}
		seeds = append(seeds, c)
		for _, i := range p.members(c) {
			n := nw.Nodes[i]
			p.staleNode(int(i))
			for _, t := range n.Terms {
				p.StaleTrans = append(p.StaleTrans, t.Index)
				if o := t.Other(n); o != nil && o.IsSource() {
					p.staleNode(o.Index)
					if !o.IsRail() {
						seeds = append(seeds, p.compOf(o))
					}
				}
			}
		}
	}
	for _, idx := range r.seedTrans {
		if idx < len(nw.Trans) { // a removal at the end seeds an index that is gone
			p.StaleTrans = append(p.StaleTrans, idx)
		}
	}
	// Nodes new in this generation are dirty whatever their component.
	for i := r.oldNodes; i < len(nw.Nodes); i++ {
		p.staleNode(i)
		p.markNode(i)
	}
	p.spread(seeds)
	p.refresh()
	return p
}

// clear resets every entry the plan set, leaving its arrays zero for the
// next batch at a fraction of a fresh allocation's cost.
func (p *Plan) clear() {
	for _, i := range p.memb {
		p.comp[i] = 0
	}
	for _, i := range p.StaleNodes {
		p.flags[i] = 0
	}
	for _, i := range p.Dirty {
		p.flags[i] = 0
	}
	p.memb, p.start = p.memb[:0], p.start[:0]
	p.dbDirty, p.timeDirty = p.dbDirty[:0], p.timeDirty[:0]
	p.StaleTrans, p.StaleNodes, p.Resensitized, p.Dirty = p.StaleTrans[:0], p.StaleNodes[:0], p.Resensitized[:0], p.Dirty[:0]
	p.DirtyNodes, p.Frac = 0, 0
}

// resize returns s, all zero, at length n, reusing its array when it fits.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// Per-node plan flags.
const (
	flagStale uint8 = 1 << iota // listed in StaleNodes
	flagDirty                   // listed in Dirty
)

// staleNode marks node i's stage.DB entries stale.
func (p *Plan) staleNode(i int) {
	if p.flags[i]&flagStale == 0 {
		p.flags[i] |= flagStale
		p.StaleNodes = append(p.StaleNodes, i)
	}
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
			seeds = append(seeds, p.compOf(p.nw.Nodes[idx]))
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
	nw := p.nw
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
	if p.flags[i]&flagDirty == 0 {
		p.flags[i] |= flagDirty
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
	nw := p.nw
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
	return i < len(p.flags) && p.flags[i]&flagDirty != 0
}

// Boundary lists, in index order, the clean nodes whose events reach into
// the dirty region: a node gating a device (one that responds to its gate)
// with a channel terminal in a time-dirty component, or a chip input whose
// channel leads directly into one — its From stages must re-apply.
func (p *Plan) Boundary() []int {
	nw := p.nw
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
