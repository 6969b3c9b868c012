// Package hier detects repeated structural instances in a switch-level
// network so the analyzer can run the event-driven engine on one
// representative and stamp the resulting timing at every other copy.
//
// The starting point is the instance table carried by .sim/.simx files
// (`@ inst <path> <lo> <hi>` directives, recorded by netlist.Import): each
// entry names a contiguous transistor range one hierarchical stamp
// produced. Detection selects the outermost non-overlapping ranges,
// splits each candidate's node references into an interior (nodes whose
// every connection lies inside the range — invisible from the rest of the
// chip) and a boundary (shared nodes), checks that the boundary cannot
// leak events into the interior through the channel graph, and groups
// structurally identical candidates with identical boundary context into
// classes by canonical fingerprint plus an exact pairwise verify.
//
// Two members of one class are guaranteed to receive bit-identical
// worst-case arrivals from a flat analysis whenever the analysis-level
// context (static sensitization, seeds, loop breaks) also matches — that
// final check lives in package core, which sees the analyzer state.
package hier

import (
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/netlist"
)

// Instance is one candidate occurrence selected for hierarchical
// treatment: an outermost instance annotation with its computed interior
// and boundary.
type Instance struct {
	// Path is the hierarchical prefix from the instance annotation.
	Path string
	// TransLo/TransHi bound the instance's transistors, half-open.
	TransLo, TransHi int
	// Interior lists the node indexes whose every gate and channel
	// reference lies inside the transistor range, ascending. The slice
	// position of a node is its *rank*: structurally corresponding nodes
	// of two class members share a rank, which is how timing is remapped
	// between them.
	Interior []int32
	// Boundary lists the non-rail nodes referenced by the instance's
	// transistors but visible outside it, ascending. Class members must
	// share their boundary nodes exactly (same global nodes).
	Boundary []int32
	// Class is the equivalence class this instance belongs to, or -1 when
	// the instance can only be analyzed flat; Reason says why.
	Class  int
	Reason string
}

// Plan is the detection result for one network.
type Plan struct {
	// Instances holds the selected outermost candidates in ascending
	// TransLo order (ranges never overlap).
	Instances []Instance
	// Classes maps class id to the indexes (into Instances) of its
	// members, ascending — the first member is the representative. Only
	// classes with at least two members offer any stamping; singletons
	// are kept for provenance.
	Classes [][]int
	// MemberOf maps node index to owning instance index + 1 (0 = the node
	// is global). Only interior nodes are owned.
	MemberOf []int32
	// rank maps an owned node's index to its position in its owner's
	// Interior.
	rank []int32
}

// Rank returns the interior rank of node idx within instance inst, or -1
// when the node is not interior to it.
func (p *Plan) Rank(inst int, idx int32) int32 {
	if int(idx) < len(p.MemberOf) && int(p.MemberOf[idx])-1 == inst {
		return p.rank[idx]
	}
	return -1
}

// Detect computes the hierarchical plan for the network. Networks without
// instance annotations yield an empty plan (never nil).
func Detect(nw *netlist.Network) *Plan {
	p := &Plan{MemberOf: make([]int32, len(nw.Nodes)), rank: make([]int32, len(nw.Nodes))}
	p.selectOutermost(nw)
	if len(p.Instances) == 0 {
		return p
	}
	p.assignInteriors(nw)
	p.classify(nw)
	return p
}

// selectOutermost picks the maximal non-overlapping instance ranges:
// candidates sorted by (TransLo asc, TransHi desc) and taken greedily, so
// an enclosing stamp always wins over its children. Malformed ranges are
// dropped (Check rejects them, but detection must not trust its input).
func (p *Plan) selectOutermost(nw *netlist.Network) {
	cands := make([]Instance, 0, len(nw.Instances))
	for _, inst := range nw.Instances {
		if inst.TransLo < 0 || inst.TransHi <= inst.TransLo || inst.TransHi > len(nw.Trans) {
			continue
		}
		cands = append(cands, Instance{Path: inst.Path, TransLo: inst.TransLo, TransHi: inst.TransHi})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].TransLo != cands[j].TransLo {
			return cands[i].TransLo < cands[j].TransLo
		}
		return cands[i].TransHi > cands[j].TransHi
	})
	hi := 0
	for _, c := range cands {
		if c.TransLo < hi {
			continue // nested in (or overlapping) the previous selection
		}
		p.Instances = append(p.Instances, c)
		hi = c.TransHi
	}
}

// assignInteriors computes, in one pass over the devices plus one over the
// nodes, which nodes are confined to which instance: a node is interior to
// the instance whose range covers every transistor referencing it. Rails
// are never interior (their events never move); nodes without references
// are global by definition.
func (p *Plan) assignInteriors(nw *netlist.Network) {
	minRef := make([]int32, len(nw.Nodes))
	maxRef := make([]int32, len(nw.Nodes))
	for i := range minRef {
		minRef[i] = math.MaxInt32
		maxRef[i] = -1
	}
	touch := func(n *netlist.Node, ti int32) {
		if ti < minRef[n.Index] {
			minRef[n.Index] = ti
		}
		if ti > maxRef[n.Index] {
			maxRef[n.Index] = ti
		}
	}
	for i, t := range nw.Trans {
		touch(t.Gate, int32(i))
		touch(t.A, int32(i))
		touch(t.B, int32(i))
	}
	for i, n := range nw.Nodes {
		if maxRef[i] < 0 || n.IsRail() {
			continue
		}
		k := p.covering(int(minRef[i]))
		if k < 0 {
			continue
		}
		inst := &p.Instances[k]
		if int(maxRef[i]) < inst.TransHi {
			p.rank[i] = int32(len(inst.Interior))
			inst.Interior = append(inst.Interior, int32(i)) // ascending: i is the loop variable
			p.MemberOf[i] = int32(k) + 1
		}
	}
}

// Covering returns the index of the selected instance whose range contains
// transistor index ti, or -1. Ranges are disjoint and sorted; the analyzer
// uses this to remap instance ranges through an edit batch's index map.
func (p *Plan) Covering(ti int) int { return p.covering(ti) }

// covering returns the index of the selected instance whose range contains
// transistor index ti, or -1. Ranges are disjoint and sorted.
func (p *Plan) covering(ti int) int {
	k := sort.Search(len(p.Instances), func(i int) bool { return p.Instances[i].TransHi > ti })
	if k < len(p.Instances) && p.Instances[k].TransLo <= ti {
		return k
	}
	return -1
}

// terminal tags for fingerprinting and verification. An interior terminal
// is identified by rank (structural position), a boundary terminal by its
// global node index — so two instances fingerprint equal only when their
// shared context is literally the same nodes.
const (
	tagInterior = iota
	tagVdd
	tagGnd
	tagBoundary
)

func (p *Plan) tag(inst int, n *netlist.Node) (int, int32) {
	switch n.Kind {
	case netlist.KindVdd:
		return tagVdd, 0
	case netlist.KindGnd:
		return tagGnd, 0
	}
	if int(p.MemberOf[n.Index])-1 == inst {
		return tagInterior, p.Rank(inst, int32(n.Index))
	}
	return tagBoundary, int32(n.Index)
}

// classify checks stamp eligibility, collects boundaries, fingerprints
// each eligible instance and groups equal ones — verified pairwise against
// the class representative, never by hash alone.
func (p *Plan) classify(nw *netlist.Network) {
	byFP := map[uint64]int{}
	for i := range p.Instances {
		inst := &p.Instances[i]
		inst.Class = -1
		if reason := p.eligible(nw, i); reason != "" {
			inst.Reason = reason
			continue
		}
		p.collectBoundary(nw, i)
		fp := p.fingerprint(nw, i)
		c, ok := byFP[fp]
		if !ok {
			inst.Class = len(p.Classes)
			byFP[fp] = inst.Class
			p.Classes = append(p.Classes, []int{i})
			continue
		}
		if !p.verify(nw, p.Classes[c][0], i) {
			inst.Reason = "fingerprint collision: structure differs from class representative"
			continue
		}
		inst.Class = c
		p.Classes[c] = append(p.Classes[c], i)
	}
}

// eligible reports why an instance cannot be stamped, or "" when it can.
// The one structural requirement is event confinement: every channel
// terminal of every member device must be a rail, an interior node, or a
// strong source — a non-source boundary node on a channel would let
// events flow across the cut in both directions, and the interior would
// no longer evolve independently. (Boundary nodes on gates are fine: a
// gate edge is one-directional, and identical across class members by the
// fingerprint's global-index tags.)
func (p *Plan) eligible(nw *netlist.Network, i int) string {
	inst := &p.Instances[i]
	if len(inst.Interior) == 0 {
		return "no interior nodes: nothing to stamp"
	}
	for ti := inst.TransLo; ti < inst.TransHi; ti++ {
		t := nw.Trans[ti]
		for _, n := range [2]*netlist.Node{t.A, t.B} {
			if n.IsRail() || int(p.MemberOf[n.Index])-1 == i || n.IsSource() {
				continue
			}
			return "channel crosses the boundary at non-source node " + n.Name
		}
	}
	return ""
}

// collectBoundary fills inst.Boundary: non-rail, non-interior nodes the
// instance's devices reference, ascending and deduplicated.
func (p *Plan) collectBoundary(nw *netlist.Network, i int) {
	inst := &p.Instances[i]
	seen := map[int32]bool{}
	for ti := inst.TransLo; ti < inst.TransHi; ti++ {
		t := nw.Trans[ti]
		for _, n := range [3]*netlist.Node{t.Gate, t.A, t.B} {
			if n.IsRail() || int(p.MemberOf[n.Index])-1 == i {
				continue
			}
			seen[int32(n.Index)] = true
		}
	}
	inst.Boundary = make([]int32, 0, len(seen))
	for idx := range seen {
		inst.Boundary = append(inst.Boundary, idx)
	}
	sort.Slice(inst.Boundary, func(a, b int) bool { return inst.Boundary[a] < inst.Boundary[b] })
}

// rankpos returns how many interior nodes of instance i have a smaller
// node index than idx. The event queue's total order and the analyzer's
// tie-break both compare original node indexes, so for two class members
// to replay identically, each shared boundary node must order the same
// way against both interiors — captured by this count (interiors are
// index-sorted, so equal counts mean equal per-pair comparisons).
func (p *Plan) rankpos(i int, idx int32) int32 {
	in := p.Instances[i].Interior
	return int32(sort.Search(len(in), func(k int) bool { return in[k] >= idx }))
}

// fingerprint hashes everything stamp equivalence depends on: per-device
// type, geometry, flow and resistance override with rank/global terminal
// tags, per-interior-rank node kind, capacitance and precharge, and the
// boundary's identity plus its index ordering against the interior.
func (p *Plan) fingerprint(nw *netlist.Network, i int) uint64 {
	inst := &p.Instances[i]
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for k := 0; k < 8; k++ {
			buf[k] = byte(v >> (8 * k))
		}
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(inst.TransHi - inst.TransLo))
	w64(uint64(len(inst.Interior)))
	for ti := inst.TransLo; ti < inst.TransHi; ti++ {
		t := nw.Trans[ti]
		w64(uint64(t.Type))
		wf(t.W)
		wf(t.L)
		w64(uint64(t.Flow))
		wf(t.ROverride)
		for _, n := range [3]*netlist.Node{t.Gate, t.A, t.B} {
			tag, v := p.tag(i, n)
			w64(uint64(tag)<<32 | uint64(uint32(v)))
		}
	}
	for _, idx := range inst.Interior {
		n := nw.Nodes[idx]
		w64(uint64(n.Kind))
		wf(n.Cap)
		if n.Precharged {
			w64(1)
		} else {
			w64(0)
		}
	}
	for _, b := range inst.Boundary {
		w64(uint64(b))
		w64(uint64(p.rankpos(i, b)))
	}
	return h.Sum64()
}

// verify checks structural equality of instances a and b exactly — the
// same walk the fingerprint hashes, compared field by field.
func (p *Plan) verify(nw *netlist.Network, a, b int) bool {
	ia, ib := &p.Instances[a], &p.Instances[b]
	if ia.TransHi-ia.TransLo != ib.TransHi-ib.TransLo ||
		len(ia.Interior) != len(ib.Interior) || len(ia.Boundary) != len(ib.Boundary) {
		return false
	}
	for k := 0; k < ia.TransHi-ia.TransLo; k++ {
		ta, tb := nw.Trans[ia.TransLo+k], nw.Trans[ib.TransLo+k]
		if ta.Type != tb.Type || ta.W != tb.W || ta.L != tb.L ||
			ta.Flow != tb.Flow || ta.ROverride != tb.ROverride {
			return false
		}
		for ti := 0; ti < 3; ti++ {
			na := [3]*netlist.Node{ta.Gate, ta.A, ta.B}[ti]
			nb := [3]*netlist.Node{tb.Gate, tb.A, tb.B}[ti]
			tagA, vA := p.tag(a, na)
			tagB, vB := p.tag(b, nb)
			if tagA != tagB || vA != vB {
				return false
			}
		}
	}
	for r := range ia.Interior {
		na, nb := nw.Nodes[ia.Interior[r]], nw.Nodes[ib.Interior[r]]
		if na.Kind != nb.Kind || na.Cap != nb.Cap || na.Precharged != nb.Precharged {
			return false
		}
	}
	for k := range ia.Boundary {
		if ia.Boundary[k] != ib.Boundary[k] ||
			p.rankpos(a, ia.Boundary[k]) != p.rankpos(b, ib.Boundary[k]) {
			return false
		}
	}
	return true
}

// Stats summarizes a plan for provenance reporting: total selected
// instances and how many sit in a class of two or more (stampable).
func (p *Plan) Stats() (instances, stampable int) {
	instances = len(p.Instances)
	for _, c := range p.Classes {
		if len(c) >= 2 {
			stampable += len(c)
		}
	}
	return
}
