// Stage enumeration: the three queries the analyzer asks (stages driving a
// node, stages through a device, stages fanning out of a source), each
// producing one Slab — the stage records plus every path element, side
// load and path capacitance they reference, packed into four arrays.
package stage

import (
	"math"
	"sort"
	"sync"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// Options bounds stage enumeration.
type Options struct {
	// Oracle supplies conduction; nil = worst case (everything Maybe).
	Oracle Oracle
	// MaxDepth bounds path length in transistors (default 64).
	MaxDepth int
	// MaxPaths bounds the number of source paths enumerated per query
	// (default 256). Overflow is reported via Truncated.
	MaxPaths int

	// caps, when non-nil, is a node-index-keyed snapshot of NodeCap over
	// the (immutable) network being enumerated. The database installs it so
	// stage construction reads a float instead of re-walking adjacency
	// lists per node; direct enumeration calls leave it nil and fall back.
	caps []float64
}

// Fill returns the options with defaults applied (exported for callers
// that need to know the effective bounds, e.g. for cache keys).
func (o Options) Fill() Options {
	if o.Oracle == nil {
		o.Oracle = worstCase
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 64
	}
	// A record keeps its path length in 16 bits, and a path toward a node
	// may run one element past MaxDepth.
	o.MaxDepth = min(o.MaxDepth, math.MaxUint16-1)
	if o.MaxPaths <= 0 {
		o.MaxPaths = 256
	}
	return o
}

// Slab is one enumeration result: the stages in enumeration order, their
// loading packed behind them. Immutable once returned, apart from each
// stage's write-once delay constants.
type Slab struct {
	Stages []Stage
	// Truncated is true if MaxPaths or MaxDepth pruned the enumeration.
	Truncated bool

	// What the records' offsets index: every path element, every side load,
	// and per stage its path capacitances followed by its split-replay
	// slots.
	path []Element
	side []SideLoad
	f    []float64
}

// emptySlab is every untruncated enumeration that found nothing.
var emptySlab = &Slab{}

// Result carries enumerated stages plus enumeration diagnostics.
type Result struct {
	Stages []*Stage
	// Truncated is true if MaxPaths or MaxDepth pruned the enumeration.
	Truncated bool
}

// result exposes the slab's stages by pointer.
func (s *Slab) result() Result {
	res := Result{Truncated: s.Truncated}
	if len(s.Stages) > 0 {
		res.Stages = make([]*Stage, len(s.Stages))
		for i := range s.Stages {
			res.Stages[i] = &s.Stages[i]
		}
	}
	return res
}

// rec is one stage under construction: its identity and how much of the
// builder's packed arrays it owns.
type rec struct {
	source, target, trigger int32
	nPath, nSide            int32
	tr                      tech.Transition
}

// slQent is one pending BFS visit of the side-load walk.
type slQent struct {
	n, attach int32
	r         float64
}

// builder accumulates one enumeration. Everything in it is scratch keyed
// by index — epoch-stamped marks instead of per-call maps, growing arrays
// instead of per-stage slices — so a recycled builder holds no reference
// into any network. sideLoads runs once per enumerated stage, hundreds of
// thousands of times on a chip; a stamp match replaces a map hit and
// bumping the stamp replaces clearing.
type builder struct {
	nw  *netlist.Network
	opt Options
	// tr is the target transition of the pass in progress and base the
	// number of stages earlier passes recorded (MaxPaths bounds each pass).
	tr   tech.Transition
	base int

	recs  []rec
	path  []Element
	side  []SideLoad
	caps  []float64
	trunc bool

	tmp       []Element // one stage's path being assembled
	stamp     uint32
	nodeStamp []uint32 // node index → stamp when last visited
	transOn   []uint32 // trans index → stamp when on the current path
	q         []slQent
}

var builderPool sync.Pool

// newBuilder readies a (recycled) builder for one enumeration over nw; opt
// must already be filled. Each target transition is one pass, opened with
// begin.
func newBuilder(nw *netlist.Network, opt Options) *builder {
	b, _ := builderPool.Get().(*builder)
	if b == nil {
		b = &builder{}
	}
	b.nw, b.opt = nw, opt
	b.recs, b.path, b.side, b.caps = b.recs[:0], b.path[:0], b.side[:0], b.caps[:0]
	b.trunc = false
	if len(b.nodeStamp) < len(nw.Nodes) {
		b.nodeStamp = make([]uint32, len(nw.Nodes))
	}
	if len(b.transOn) < len(nw.Trans) {
		b.transOn = make([]uint32, len(nw.Trans))
	}
	return b
}

// begin opens the pass toward transition tr.
func (b *builder) begin(tr tech.Transition) { b.tr, b.base = tr, len(b.recs) }

// full reports whether the pass in progress has recorded MaxPaths stages.
func (b *builder) full() bool { return len(b.recs)-b.base >= b.opt.MaxPaths }

// nodeCap returns the total capacitance loading node idx, from the
// snapshot when one is installed.
func (b *builder) nodeCap(idx int32) float64 {
	if b.opt.caps != nil {
		return b.opt.caps[idx]
	}
	return b.nw.NodeCap(b.nw.Nodes[idx])
}

// add records one stage along path (copied) and computes its loading.
func (b *builder) add(source, target, trigger int32, path []Element) {
	s0 := len(b.side)
	b.path = append(b.path, path...)
	b.sideLoads(source, path)
	// Sorting the side loads by attach position lets evaluators merge
	// them into a single backwards path walk with no scratch allocation.
	side := b.side[s0:]
	sort.Slice(side, func(i, j int) bool { return side[i].Attach < side[j].Attach })
	for _, e := range path {
		b.caps = append(b.caps, b.nodeCap(e.To))
	}
	b.recs = append(b.recs, rec{source, target, trigger, int32(len(path)), int32(len(side)), b.tr})
}

// sideLoads walks outward from every path node through conducting
// transistors (per the oracle), appending the capacitance of off-path
// nodes to b.side. Each off-path node is attributed to the first path node
// that reaches it (shortest-hop via BFS from the whole path at once), with
// the accumulated branch resistance.
func (b *builder) sideLoads(source int32, path []Element) {
	nw := b.nw
	b.stamp++
	if b.stamp == 0 { // wrapped: marks are ambiguous, start over
		clear(b.nodeStamp)
		clear(b.transOn)
		b.stamp = 1
	}
	// Seed with path nodes (and source) at zero resistance. Attachment
	// point and branch resistance ride in the queue entries; only the
	// visited marks live in the stamped arrays.
	b.nodeStamp[source] = b.stamp
	b.q = append(b.q[:0], slQent{source, 0, 0})
	for i, e := range path {
		b.nodeStamp[e.To] = b.stamp
		b.q = append(b.q, slQent{e.To, int32(i + 1), 0})
		b.transOn[e.Trans] = b.stamp
	}
	for qi := 0; qi < len(b.q); qi++ {
		cur := b.q[qi]
		n := nw.Nodes[cur.n]
		if n.IsSource() {
			// Ideal sources absorb: nothing behind a rail or input
			// loads the stage, and expansion must not pass through.
			continue
		}
		for _, t := range n.Terms {
			if b.opt.Oracle(t) == Off {
				continue
			}
			// Skip path elements themselves.
			if b.transOn[t.Index] == b.stamp {
				continue
			}
			o := t.Other(n)
			if o == nil {
				continue
			}
			if !t.CanFlow(n) {
				continue
			}
			if b.nodeStamp[o.Index] == b.stamp {
				continue
			}
			r := cur.r + elementR(nw.Tech, t, b.tr)
			b.nodeStamp[o.Index] = b.stamp
			// A strong node absorbs the branch: it contributes no
			// capacitance (it is a rail/input) and stops expansion.
			if o.IsSource() {
				continue
			}
			oi := int32(o.Index)
			b.side = append(b.side, SideLoad{Node: oi, Attach: cur.attach, R: r, C: b.nodeCap(oi)})
			b.q = append(b.q, slQent{oi, cur.attach, r})
		}
	}
}

// slab packs what the builder accumulated into exactly-sized arrays,
// derives each stage's cached fields, and recycles the builder.
func (b *builder) slab() *Slab {
	defer func() {
		b.nw, b.opt = nil, Options{}
		builderPool.Put(b)
	}()
	if len(b.recs) == 0 {
		if b.trunc {
			return &Slab{Truncated: true}
		}
		return emptySlab
	}
	nw := b.nw
	// Fresh arrays, not slices.Clone: cloning an empty scratch slice would
	// alias the pooled array.
	s := &Slab{
		Stages:    make([]Stage, len(b.recs)),
		Truncated: b.trunc,
		path:      append(make([]Element, 0, len(b.path)), b.path...),
		side:      append(make([]SideLoad, 0, len(b.side)), b.side...),
	}
	var pathOff, sideOff, nf uint32
	for i := range s.Stages {
		st, r := &s.Stages[i], &b.recs[i]
		st.slab = s
		st.Source, st.Target, st.Trigger, st.transition = r.source, r.target, r.trigger, uint8(r.tr)
		st.pathOff, st.nPath = pathOff, uint16(r.nPath)
		st.sideOff, st.nSide = sideOff, uint32(r.nSide)
		st.capOff = nf
		pathOff += uint32(r.nPath)
		sideOff += uint32(r.nSide)
		path := st.Path()
		for _, e := range path {
			st.pathBloom |= 1 << (uint(e.Trans) & 63)
		}
		for j, e := range path {
			if e.Trans == r.trigger {
				st.driver = uint16(j)
				break
			}
		}
		st.driverType = uint8(nw.Trans[path[st.driver].Trans].Type)
		if nw.Nodes[r.source].Kind == netlist.KindInput {
			st.srcInput = r.source + 1
		}
		nf += uint32(r.nPath)
		if st.Fused() {
			nf += uint32(st.driver)
		}
	}
	s.f = make([]float64, nf)
	caps := b.caps
	for i := range s.Stages {
		caps = caps[copy(s.Stages[i].PathCap(), caps):]
	}
	return s
}

// sourceWanted reports whether node n can source the given target
// transition: Vdd and high inputs source rises, GND and low inputs source
// falls. Inputs source both (their own transition direction is decided by
// the caller), so they are accepted for either.
func sourceWanted(n *netlist.Node, tr tech.Transition) bool {
	switch n.Kind {
	case netlist.KindVdd:
		return tr == tech.Rise
	case netlist.KindGnd:
		return tr == tech.Fall
	case netlist.KindInput:
		return true
	}
	return false
}

// hop is the element through t from node `from` to node `to`.
func hop(t *netlist.Trans, from, to *netlist.Node) Element {
	return Element{Trans: int32(t.Index), From: int32(from.Index), To: int32(to.Index)}
}

// reversed appends rev back to front onto dst.
func reversed(dst, rev []Element) []Element {
	for i := len(rev) - 1; i >= 0; i-- {
		dst = append(dst, rev[i])
	}
	return dst
}

// ToNode enumerates all stages that could drive target with transition tr:
// every acyclic path from an appropriate strong source to target through
// transistors the oracle does not rule out, respecting flow hints. Side
// loading is computed per stage.
func ToNode(nw *netlist.Network, target *netlist.Node, tr tech.Transition, opt Options) Result {
	return toNode(nw, target, opt.Fill(), tr).result()
}

// toNode runs one pass per transition of trs, in order, into one slab.
func toNode(nw *netlist.Network, target *netlist.Node, opt Options, trs ...tech.Transition) *Slab {
	if target.IsSource() {
		return emptySlab
	}
	b := newBuilder(nw, opt)
	for _, tr := range trs {
		b.begin(tr)
		b.toNode(target)
	}
	return b.slab()
}

func (b *builder) toNode(target *netlist.Node) {
	ps := pathsToNode(target, b.tr, b.opt, nil)
	b.trunc = b.trunc || ps.Truncated
	for _, p := range ps.paths {
		b.add(p[0].From, int32(target.Index), NoTrans, p)
	}
}

// Through enumerates the stages created when transistor trig becomes
// conducting: every stage whose path passes through trig, targeting each
// node reachable on the far side (including trig's own far terminal).
// Source-side paths are enumerated exhaustively (bounded by MaxPaths);
// the far side is expanded as a spanning tree, one stage per reached node.
func Through(nw *netlist.Network, trig *netlist.Trans, tr tech.Transition, opt Options) Result {
	return through(nw, trig, opt.Fill(), tr).result()
}

// through runs one pass per transition of trs, in order, into one slab.
func through(nw *netlist.Network, trig *netlist.Trans, opt Options, trs ...tech.Transition) *Slab {
	b := newBuilder(nw, opt)
	for _, tr := range trs {
		b.begin(tr)
		b.through(trig)
	}
	return b.slab()
}

func (b *builder) through(trig *netlist.Trans) {
	opt, tr := b.opt, b.tr
	// For each orientation of the trigger (A→B and B→A), find source
	// paths ending at the near terminal, then extend to far-side nodes.
	for _, orient := range [2]struct{ near, far *netlist.Node }{
		{trig.A, trig.B}, {trig.B, trig.A},
	} {
		if !trig.CanFlow(orient.near) || orient.near == orient.far {
			continue
		}
		srcPaths := pathsToNode(orient.near, tr, opt, trig)
		if srcPaths.Truncated {
			b.trunc = true
		}
		if len(srcPaths.paths) == 0 && orient.near.IsSource() && sourceWanted(orient.near, tr) {
			// The near terminal is itself a source: the trivial path.
			srcPaths.paths = append(srcPaths.paths, nil)
		}
		for _, sp := range srcPaths.paths {
			exts := spanningExtensions(orient.far, orient.near, sp, trig, opt)
			for _, ext := range exts {
				if len(sp)+1+len(ext) > opt.MaxDepth {
					b.trunc = true
					continue
				}
				full := append(b.tmp[:0], sp...)
				full = append(full, hop(trig, orient.near, orient.far))
				full = append(full, ext...)
				b.tmp = full
				b.add(full[0].From, full[len(full)-1].To, int32(trig.Index), full)
				if b.full() {
					b.trunc = true
					return
				}
			}
		}
	}
}

type pathSet struct {
	paths     [][]Element // each source→near orientation
	Truncated bool
}

// pathsToNode enumerates acyclic source→end paths not using `exclude` (nil:
// any device may be used).
func pathsToNode(end *netlist.Node, tr tech.Transition, opt Options, exclude *netlist.Trans) pathSet {
	var ps pathSet
	if end.IsSource() {
		return ps
	}
	onPath := map[*netlist.Node]bool{}
	var rev []Element
	var dfs func(n *netlist.Node, depth int)
	dfs = func(n *netlist.Node, depth int) {
		if len(ps.paths) >= opt.MaxPaths || depth > opt.MaxDepth {
			ps.Truncated = true
			return
		}
		onPath[n] = true
		defer delete(onPath, n)
		for _, t := range n.Terms {
			if t == exclude || opt.Oracle(t) == Off {
				continue
			}
			o := t.Other(n)
			if o == nil || onPath[o] || !t.CanFlow(o) {
				continue
			}
			rev = append(rev, hop(t, o, n))
			if o.IsSource() {
				if sourceWanted(o, tr) {
					ps.paths = append(ps.paths, reversed(make([]Element, 0, len(rev)), rev))
				}
			} else {
				dfs(o, depth+1)
			}
			rev = rev[:len(rev)-1]
		}
	}
	dfs(end, 0)
	return ps
}

// spanningExtensions returns, for every node reachable from `from` through
// conducting transistors without touching the source path, the tree path
// to it (as a list of elements from `from` outward). The empty extension
// (targeting `from` itself) is always first.
func spanningExtensions(from, near *netlist.Node, srcPath []Element, trig *netlist.Trans, opt Options) [][]Element {
	blocked := map[int32]bool{int32(near.Index): true}
	for _, e := range srcPath {
		blocked[e.From] = true
		blocked[e.To] = true
	}
	exts := [][]Element{nil}
	if from.IsSource() {
		return exts
	}
	type item struct {
		n    *netlist.Node
		path []Element
	}
	seen := map[*netlist.Node]bool{from: true}
	q := []item{{from, nil}}
	for len(q) > 0 {
		cur := q[0]
		q = q[1:]
		if len(cur.path) >= opt.MaxDepth {
			continue
		}
		for _, t := range cur.n.Terms {
			if t == trig || opt.Oracle(t) == Off {
				continue
			}
			o := t.Other(cur.n)
			if o == nil || seen[o] || blocked[int32(o.Index)] || !t.CanFlow(cur.n) {
				continue
			}
			seen[o] = true
			if o.IsSource() {
				continue
			}
			np := make([]Element, len(cur.path)+1)
			copy(np, cur.path)
			np[len(cur.path)] = hop(t, cur.n, o)
			exts = append(exts, np)
			q = append(q, item{o, np})
		}
	}
	return exts
}

// FromNode enumerates the stages created when node src itself transitions
// (an externally timed event, e.g. a chip input feeding pass transistors):
// a spanning tree of the conducting channel graph rooted at src, one stage
// per reachable node, each with Source = src and no trigger.
func FromNode(nw *netlist.Network, src *netlist.Node, tr tech.Transition, opt Options) Result {
	return fromNode(nw, src, tr, opt.Fill()).result()
}

func fromNode(nw *netlist.Network, src *netlist.Node, tr tech.Transition, opt Options) *Slab {
	b := newBuilder(nw, opt)
	b.begin(tr)
	type item struct {
		n    *netlist.Node
		path []Element
	}
	seen := map[*netlist.Node]bool{src: true}
	q := []item{{src, nil}}
	for len(q) > 0 {
		cur := q[0]
		q = q[1:]
		if len(cur.path) >= opt.MaxDepth {
			b.trunc = true
			continue
		}
		for _, t := range cur.n.Terms {
			if opt.Oracle(t) == Off {
				continue
			}
			o := t.Other(cur.n)
			if o == nil || seen[o] || !t.CanFlow(cur.n) {
				continue
			}
			seen[o] = true
			if o.IsSource() {
				continue
			}
			np := make([]Element, len(cur.path)+1)
			copy(np, cur.path)
			np[len(cur.path)] = hop(t, cur.n, o)
			b.add(int32(src.Index), int32(o.Index), NoTrans, np)
			if b.full() {
				b.trunc = true
				return b.slab()
			}
			q = append(q, item{o, np})
		}
	}
	return b.slab()
}
