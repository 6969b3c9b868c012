// Stage enumeration: the three queries the analyzer asks (stages driving a
// node, stages through a device, stages fanning out of a source), each
// producing one Slab — the stage records plus the path elements, side
// loads and path capacitances they reference, packed into four arrays.
// A database's Through and Release slabs store each (transition, path)
// body once per channel-connected group: a record whose body an earlier
// slab of the group holds refers to it instead of copying it.
//
// Every query walks the compiled network (netlist.Compact): channel
// adjacency is a CSR row scan, a device's conduction and flow hint and a
// node's source flags and loading are array reads. The pointer graph is
// read only for the geometry of an accepted side branch.
package stage

import (
	"cmp"
	"math"
	"slices"
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
// stage's delay constants.
type Slab struct {
	Stages []Stage
	// Truncated is true if MaxPaths or MaxDepth pruned the enumeration.
	Truncated bool

	// What the records' offsets index: the path elements and side loads of
	// the bodies this slab owns, and in f first each path element's
	// capacitance (f[i] loads path[i].To), then every record's split-replay
	// slots.
	path []Element
	side []SideLoad
	f    []float64
}

// find returns the record of s, if any, with transition tr along path,
// whose bloom is bloom; s may be nil.
func (s *Slab) find(tr tech.Transition, bloom uint64, path []Element) *Stage {
	if s == nil {
		return nil
	}
	target := path[len(path)-1].To
	for i := range s.Stages {
		st := &s.Stages[i]
		if st.pathBloom == bloom && st.Target == target && st.transition == uint8(tr) &&
			int(st.nPath) == len(path) && slices.Equal(st.Path(), path) {
			return st
		}
	}
	return nil
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

// view is what enumeration reads of one network under one sensitization:
// the compiled adjacency, per-device conduction materialized once from the
// oracle, and per-node loading. Read-only once built.
type view struct {
	nw   *netlist.Network
	cn   *netlist.Compact
	cond []Conduction
	caps []float64
	vdd  int32
	// maxDepth and maxPaths are the filled bounds.
	maxDepth, maxPaths int
}

// newView builds the view of nw over cn, nw's compile (nil compiles one);
// opt must already be filled.
func newView(nw *netlist.Network, cn *netlist.Compact, opt Options) *view {
	v := &view{
		nw:       nw,
		cn:       cn,
		cond:     make([]Conduction, len(nw.Trans)),
		caps:     make([]float64, len(nw.Nodes)),
		vdd:      int32(nw.Vdd().Index),
		maxDepth: opt.MaxDepth,
		maxPaths: opt.MaxPaths,
	}
	if v.cn == nil {
		v.cn = netlist.Compile(nw)
	}
	for i, t := range nw.Trans {
		v.cond[i] = opt.Oracle(t)
	}
	for i, n := range nw.Nodes {
		v.caps[i] = nw.NodeCap(n)
	}
	return v
}

// far returns the terminal of channel ref's device (ref >> 1) opposite the
// row's node. The walks below test the device before its far terminal, so
// a device the oracle rules out costs one load, not three.
func (v *view) far(ref int32) int32 {
	if ref&1 != 0 {
		return v.cn.TransB[ref>>1]
	}
	return v.cn.TransA[ref>>1]
}

// canFlow reports whether stage extraction may cross device ti from its
// channel terminal `from` (Trans.CanFlow).
func (v *view) canFlow(ti, from int32) bool {
	switch netlist.Flow(v.cn.TransFlow[ti]) {
	case netlist.FlowBoth:
		return true
	case netlist.FlowAB:
		return from == v.cn.TransA[ti]
	case netlist.FlowBA:
		return from == v.cn.TransB[ti]
	}
	return false
}

// isSource reports whether node n is a strong source: a rail or an input.
func (v *view) isSource(n int32) bool { return v.cn.IsRail[n] || v.cn.IsInput[n] }

// sources reports whether source node n can source target transition tr:
// Vdd sources rises, GND falls, and an input either (the caller decides its
// direction).
func (v *view) sources(n int32, tr tech.Transition) bool {
	return v.cn.IsInput[n] || (n == v.vdd) == (tr == tech.Rise)
}

// rec is one stage under construction: its identity, its path's bloom, and
// either the record of a built slab whose body it shares or how much of the
// builder's packed arrays its body owns.
type rec struct {
	source, target, trigger int32
	nPath, nSide            int32
	tr                      tech.Transition
	bloom                   uint64
	shared                  *Stage
}

// slQent is one pending BFS visit of the side-load walk.
type slQent struct {
	n, attach int32
	r         float64
}

// frame is one node of the depth-first walk toward an end node: how far its
// CSR row has been scanned, and the hop from it toward the end.
type frame struct {
	n, at, stop int32
	hop         Element
}

// treeEnt is one node of a spanning tree: the device and tree index it was
// reached through (-1 at the root), and its hop count from the root.
type treeEnt struct {
	n, parent, trans, depth int32
}

// builder accumulates one enumeration. Everything in it is scratch keyed
// by index — epoch-stamped marks instead of per-call maps, parent links
// instead of per-node path copies, growing arrays instead of per-stage
// slices — so a recycled builder holds no reference into any network.
type builder struct {
	v *view
	// db, when not nil, is the database whose built Through and Release
	// slabs may already hold a body this enumeration would repeat.
	db *DB
	// tr is the target transition of the pass in progress and base the
	// number of stages earlier passes recorded (MaxPaths bounds each pass).
	tr   tech.Transition
	base int

	recs  []rec
	path  []Element
	side  []SideLoad
	caps  []float64
	trunc bool

	// Side-load walk: stamp marks visited nodes in nodeStamp.
	stamp     uint32
	nodeStamp []uint32
	q         []slQent

	// Path and tree walks: walk marks on-path, blocked and reached nodes in
	// mark. A depth-first walk leaves its source paths in src (path k ends
	// at srcEnd[k]); a spanning walk grows tree, and emit assembles one
	// stage's path in tmp behind a prefix of pre elements.
	walk   uint32
	mark   []uint32
	stack  []frame
	src    []Element
	srcEnd []int32
	tree   []treeEnt
	tmp    []Element
	pre    int
}

var builderPool sync.Pool

// newBuilder readies a (recycled) builder for one enumeration over v that
// shares bodies with db's built slabs (nil: none). Each target transition
// is one pass, opened with begin.
func newBuilder(v *view, db *DB) *builder {
	b, _ := builderPool.Get().(*builder)
	if b == nil {
		b = &builder{}
	}
	b.v, b.db = v, db
	b.recs, b.path, b.side, b.caps = b.recs[:0], b.path[:0], b.side[:0], b.caps[:0]
	b.trunc = false
	if n := len(v.caps); len(b.nodeStamp) < n {
		b.nodeStamp, b.mark = make([]uint32, n), make([]uint32, n)
	}
	return b
}

// recycle returns the builder to the pool, dropping its view and database.
func (b *builder) recycle() {
	b.v, b.db = nil, nil
	builderPool.Put(b)
}

// begin opens the pass toward transition tr.
func (b *builder) begin(tr tech.Transition) { b.tr, b.base = tr, len(b.recs) }

// full reports whether the pass in progress has recorded MaxPaths stages.
func (b *builder) full() bool { return len(b.recs)-b.base >= b.v.maxPaths }

// newWalk starts a path or tree walk: a fresh stamp for mark.
func (b *builder) newWalk() uint32 {
	b.walk++
	if b.walk == 0 { // wrapped: marks are ambiguous, start over
		clear(b.mark)
		b.walk = 1
	}
	return b.walk
}

// add records one stage along path. When the database already holds a
// record of this transition along this path, the new one shares its body;
// otherwise the path is copied and its loading computed.
func (b *builder) add(source, target, trigger int32, path []Element) {
	r := rec{source: source, target: target, trigger: trigger, nPath: int32(len(path)), tr: b.tr}
	for _, e := range path {
		r.bloom |= 1 << (uint(e.Trans) & 63)
	}
	if r.shared = b.sharedBody(r.bloom, path); r.shared == nil {
		s0 := len(b.side)
		b.path = append(b.path, path...)
		b.sideLoads(source, path)
		// Sorting the side loads by attach position lets evaluators merge
		// them into a single backwards path walk with no scratch allocation.
		side := b.side[s0:]
		slices.SortFunc(side, func(x, y SideLoad) int { return cmp.Compare(x.Attach, y.Attach) })
		for _, e := range path {
			b.caps = append(b.caps, b.v.caps[e.To])
		}
		r.nSide = int32(len(side))
	}
	b.recs = append(b.recs, r)
}

// sharedBody returns a record of the database's built slabs with the pass's
// transition along path, or nil. Such a record can only be in a slab of
// the path's own channel-connected group: the Release slab of its target
// or the Through slab of one of its devices. A slot the database holds
// describes its current generation (Advance resets a group's slots
// together), so the record's side loads and capacitances are the ones this
// enumeration would compute.
func (b *builder) sharedBody(bloom uint64, path []Element) *Stage {
	db := b.db
	if db == nil {
		return nil
	}
	if st := db.release[path[len(path)-1].To].find(b.tr, bloom, path); st != nil {
		return st
	}
	for _, e := range path {
		if st := db.through[e.Trans].find(b.tr, bloom, path); st != nil {
			return st
		}
	}
	return nil
}

// sideLoads walks outward from every path node through conducting
// transistors (per the oracle), appending the capacitance of off-path
// nodes to b.side. Each off-path node is attributed to the first path node
// that reaches it (shortest-hop via BFS from the whole path at once), with
// the accumulated branch resistance.
func (b *builder) sideLoads(source int32, path []Element) {
	v := b.v
	b.stamp++
	if b.stamp == 0 { // wrapped: marks are ambiguous, start over
		clear(b.nodeStamp)
		b.stamp = 1
	}
	// Seed with path nodes (and source) at zero resistance. Attachment
	// point and branch resistance ride in the queue entries; only the
	// visited marks live in the stamped array. Every path element joins
	// two marked nodes, so the walk never takes one as a side branch.
	b.nodeStamp[source] = b.stamp
	b.q = append(b.q[:0], slQent{source, 0, 0})
	for i, e := range path {
		b.nodeStamp[e.To] = b.stamp
		b.q = append(b.q, slQent{e.To, int32(i + 1), 0})
	}
	for qi := 0; qi < len(b.q); qi++ {
		cur := b.q[qi]
		if v.isSource(cur.n) {
			// Ideal sources absorb: nothing behind a rail or input
			// loads the stage, and expansion must not pass through.
			continue
		}
		for _, ref := range v.cn.Terms(int(cur.n)) {
			ti := ref >> 1
			if v.cond[ti] == Off || !v.canFlow(ti, cur.n) {
				continue
			}
			o := v.far(ref)
			if b.nodeStamp[o] == b.stamp {
				continue
			}
			b.nodeStamp[o] = b.stamp
			// A strong node absorbs the branch: it contributes no
			// capacitance (it is a rail/input) and stops expansion.
			if v.isSource(o) {
				continue
			}
			r := cur.r + elementR(v.nw.Tech, v.nw.Trans[ti], b.tr)
			b.side = append(b.side, SideLoad{Node: o, Attach: cur.attach, R: r, C: v.caps[o]})
			b.q = append(b.q, slQent{o, cur.attach, r})
		}
	}
}

// slab packs what the builder accumulated into exactly-sized arrays,
// points each stage at its body, derives its cached fields, and recycles
// the builder.
func (b *builder) slab() *Slab {
	defer b.recycle()
	if len(b.recs) == 0 {
		if b.trunc {
			return &Slab{Truncated: true}
		}
		return emptySlab
	}
	cn := b.v.cn
	// Fresh arrays, not slices.Clone: cloning an empty scratch slice would
	// alias the pooled array.
	s := &Slab{
		Stages:    make([]Stage, len(b.recs)),
		Truncated: b.trunc,
		path:      append(make([]Element, 0, len(b.path)), b.path...),
		side:      append(make([]SideLoad, 0, len(b.side)), b.side...),
	}
	var pathOff, sideOff uint32
	nf := uint32(len(b.path)) // the owned bodies' path capacitances come first
	for i := range s.Stages {
		st, r := &s.Stages[i], &b.recs[i]
		st.slab, st.pathBloom = s, r.bloom
		st.Target, st.transition, st.nPath = r.target, uint8(r.tr), uint16(r.nPath)
		if sh := r.shared; sh != nil {
			st.body, st.pathOff, st.sideOff, st.nSide = sh.body, sh.pathOff, sh.sideOff, sh.nSide
		} else {
			st.body, st.pathOff, st.sideOff, st.nSide = s, pathOff, sideOff, uint32(r.nSide)
			pathOff += uint32(r.nPath)
			sideOff += uint32(r.nSide)
		}
		path := st.Path()
		if r.trigger != NoTrans {
			st.triggered = true
			for j, e := range path {
				if e.Trans == r.trigger {
					st.driver = uint16(j)
					break
				}
			}
		}
		st.driverType = cn.TransType[path[st.driver].Trans]
		if cn.IsInput[r.source] {
			st.srcInput = r.source + 1
		}
		st.lowOff = nf
		nf += uint32(st.driver)
	}
	s.f = make([]float64, nf)
	copy(s.f, b.caps)
	return s
}

// enumerate runs pass over key once per transition of trs, in order, into
// one slab, sharing bodies with db's built slabs (nil: none).
func (v *view) enumerate(db *DB, pass func(*builder, int32), key int32, trs ...tech.Transition) *Slab {
	b := newBuilder(v, db)
	for _, tr := range trs {
		b.begin(tr)
		pass(b, key)
	}
	return b.slab()
}

// sourcePaths collects in src/srcEnd every acyclic path from a source of
// the pass's transition to end that avoids device skip (NoTrans: none),
// each oriented source→end, depth first in CSR row order. It reports
// whether MaxPaths or MaxDepth pruned the walk. MaxPaths is checked before
// descending, so paths to sources adjacent to one node are all kept.
func (b *builder) sourcePaths(end, skip int32) (trunc bool) {
	v := b.v
	b.src, b.srcEnd = b.src[:0], b.srcEnd[:0]
	if v.isSource(end) {
		return false
	}
	w := b.newWalk()
	b.mark[end] = w
	b.stack = append(b.stack[:0], frame{n: end, at: v.cn.TermStart[end], stop: v.cn.TermStart[end+1]})
	for len(b.stack) > 0 {
		f := &b.stack[len(b.stack)-1]
		if f.at == f.stop {
			b.mark[f.n] = 0 // off the path again
			b.stack = b.stack[:len(b.stack)-1]
			continue
		}
		ref := v.cn.TermRef[f.at]
		f.at++
		ti := ref >> 1
		if ti == skip || v.cond[ti] == Off {
			continue
		}
		o := v.far(ref)
		if b.mark[o] == w || !v.canFlow(ti, o) {
			continue
		}
		if v.isSource(o) {
			if v.sources(o, b.tr) {
				b.src = append(b.src, Element{Trans: ti, From: o, To: f.n})
				for k := len(b.stack) - 1; k > 0; k-- {
					b.src = append(b.src, b.stack[k].hop)
				}
				b.srcEnd = append(b.srcEnd, int32(len(b.src)))
			}
			continue
		}
		if len(b.srcEnd) >= v.maxPaths || len(b.stack) > v.maxDepth {
			trunc = true
			continue
		}
		b.mark[o] = w
		b.stack = append(b.stack, frame{o, v.cn.TermStart[o], v.cn.TermStart[o+1], Element{Trans: ti, From: o, To: f.n}})
	}
	return trunc
}

// ToNode enumerates all stages that could drive target with transition tr:
// every acyclic path from an appropriate strong source to target through
// transistors the oracle does not rule out, respecting flow hints. Side
// loading is computed per stage.
func ToNode(nw *netlist.Network, target *netlist.Node, tr tech.Transition, opt Options) Result {
	return newView(nw, nil, opt.Fill()).enumerate(nil, (*builder).toNode, int32(target.Index), tr).result()
}

func (b *builder) toNode(target int32) {
	b.trunc = b.sourcePaths(target, NoTrans) || b.trunc
	start := int32(0)
	for _, end := range b.srcEnd {
		p := b.src[start:end]
		start = end
		b.add(p[0].From, target, NoTrans, p)
	}
}

// Through enumerates the stages created when transistor trig becomes
// conducting: every stage whose path passes through trig, targeting each
// node reachable on the far side (including trig's own far terminal).
// Source-side paths are enumerated exhaustively (bounded by MaxPaths);
// the far side is expanded as a spanning tree, one stage per reached node.
func Through(nw *netlist.Network, trig *netlist.Trans, tr tech.Transition, opt Options) Result {
	return newView(nw, nil, opt.Fill()).enumerate(nil, (*builder).through, int32(trig.Index), tr).result()
}

func (b *builder) through(trig int32) {
	v := b.v
	ta, tb := v.cn.TransA[trig], v.cn.TransB[trig]
	// For each orientation of the trigger (A→B and B→A), find source
	// paths ending at the near terminal, then extend to far-side nodes.
	for _, or := range [2][2]int32{{ta, tb}, {tb, ta}} {
		near, far := or[0], or[1]
		if near == far || !v.canFlow(trig, near) {
			continue
		}
		b.trunc = b.sourcePaths(near, trig) || b.trunc
		if len(b.srcEnd) == 0 && v.isSource(near) && v.sources(near, b.tr) {
			b.srcEnd = append(b.srcEnd, 0) // the near terminal is itself a source: the trivial path
		}
		start := int32(0)
		for _, end := range b.srcEnd {
			sp := b.src[start:end]
			start = end
			b.tmp = append(append(b.tmp[:0], sp...), Element{Trans: trig, From: near, To: far})
			b.pre = len(b.tmp)
			source := b.tmp[0].From
			// The far side's tree may not touch the source path.
			w := b.newWalk()
			b.mark[near] = w
			for _, e := range sp {
				b.mark[e.From], b.mark[e.To] = w, w
			}
			b.mark[far] = w
			b.tree = append(b.tree[:0], treeEnt{n: far, parent: -1})
			if b.emit(0, source, trig) || !v.isSource(far) && b.span(source, trig) {
				return
			}
		}
	}
}

// FromNode enumerates the stages created when node src itself transitions
// (an externally timed event, e.g. a chip input feeding pass transistors):
// a spanning tree of the conducting channel graph rooted at src, one stage
// per reachable node, each with Source = src and no trigger.
func FromNode(nw *netlist.Network, src *netlist.Node, tr tech.Transition, opt Options) Result {
	return newView(nw, nil, opt.Fill()).enumerate(nil, (*builder).fromNode, int32(src.Index), tr).result()
}

func (b *builder) fromNode(src int32) {
	b.tmp, b.pre = b.tmp[:0], 0
	b.mark[src] = b.newWalk()
	b.tree = append(b.tree[:0], treeEnt{n: src, parent: -1})
	b.span(src, NoTrans)
}

// span grows b.tree, seeded with its root (marked, as is every node it may
// not enter), breadth first through conducting devices other than trigger,
// without passing through a source, and emits one stage per node reached.
// It reports whether the pass filled up.
func (b *builder) span(source, trigger int32) bool {
	v := b.v
	w := b.walk
	for qi := int32(0); int(qi) < len(b.tree); qi++ {
		cur := b.tree[qi]
		if int(cur.depth) >= v.maxDepth {
			b.trunc = true
			continue
		}
		for _, ref := range v.cn.Terms(int(cur.n)) {
			ti := ref >> 1
			if ti == trigger || v.cond[ti] == Off || !v.canFlow(ti, cur.n) {
				continue
			}
			o := v.far(ref)
			if b.mark[o] == w {
				continue
			}
			b.mark[o] = w
			if v.isSource(o) {
				continue
			}
			b.tree = append(b.tree, treeEnt{o, qi, ti, cur.depth + 1})
			if b.emit(int32(len(b.tree)-1), source, trigger) {
				return true
			}
		}
	}
	return false
}

// emit adds the stage whose path is the prefix b.tmp[:b.pre] followed by
// the tree path to b.tree[i], unless it exceeds MaxDepth. It reports
// whether the pass filled up.
func (b *builder) emit(i, source, trigger int32) bool {
	e := b.tree[i]
	n := b.pre + int(e.depth)
	if n > b.v.maxDepth {
		b.trunc = true
		return false
	}
	b.tmp = slices.Grow(b.tmp[:b.pre], int(e.depth))[:n]
	for j := n - 1; j >= b.pre; j-- {
		p := b.tree[e.parent]
		b.tmp[j] = Element{Trans: e.trans, From: p.n, To: e.n}
		e = p
	}
	b.add(source, b.tmp[n-1].To, trigger, b.tmp)
	if b.full() {
		b.trunc = true
		return true
	}
	return false
}

// group lists the non-source nodes channel-connected to either terminal of
// device ti through conducting devices other than ti, in visit order.
func (b *builder) group(ti int32) []int32 {
	defer b.recycle()
	v := b.v
	w := b.newWalk()
	// The member list is the walk's queue (in srcEnd's array, idle outside
	// a path walk): it is never consumed, only walked, and ends up holding
	// the members in visit order.
	q := b.srcEnd[:0]
	for _, m := range [2]int32{v.cn.TransA[ti], v.cn.TransB[ti]} {
		if !v.isSource(m) && b.mark[m] != w {
			b.mark[m] = w
			q = append(q, m)
		}
	}
	for qi := 0; qi < len(q); qi++ {
		for _, ref := range v.cn.Terms(int(q[qi])) {
			if tj := ref >> 1; tj == ti || v.cond[tj] == Off {
				continue
			}
			o := v.far(ref)
			if b.mark[o] == w || v.isSource(o) {
				continue
			}
			b.mark[o] = w
			q = append(q, o)
		}
	}
	b.srcEnd = q
	return append(make([]int32, 0, len(q)), q...)
}
