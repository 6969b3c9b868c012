package switchsim

// The vectorized batch engine: the same Bryant strength lattice as the
// scalar Sim, evaluated 64 input vectors at a time in bit-plane form.
//
// A ternary value is two bit planes — p0 ("could be low") and p1 ("could
// be high"); X sets both. Signal resolution state is four plane stacks per
// node, one word per strength level s ∈ {K1, K2, G2, G1, Ω}, in the
// cumulative encoding "a contribution of strength ≥ s exists":
//
//	dh[s]/dl[s]  definite high/low contribution at strength ≥ s
//	ph[s]/pl[s]  possible high/low contribution at strength ≥ s
//
// A base contribution of strength σ sets levels 1..σ; propagation through
// a device of strength g copies levels 1..g across the channel, which is
// exactly min-attenuation in cumulative form. The join of the lattice is
// bitwise OR, so the whole monotone fixed point runs as word operations
// over 64 independent vector lanes.
//
// Every vector starts from power-on state (rails driven, definite vector
// symbols driven at Ω, X symbols released, everything else X charge) and
// settles by the same synchronous sweep discipline as Sim.Settle: freeze
// conduction from the lane's current values, solve the channel fixed
// point, commit, repeat — with identical sweep limits and identical
// oscillation-to-X forcing. The scalar engine is the reference: per lane,
// the batch engine is bit-identical to a fresh Sim run of that vector
// (FuzzBatchSim and TestBatchMatchesScalar pin this). The scalar engine
// stages each group fixed point as driven-then-charged; the join is
// monotone and the least fixed point unique, so the batch engine solves
// the same fixed point unstaged.

import (
	"fmt"

	"repro/internal/netlist"
)

// Lanes is the vector batch width: one bit lane per vector in a slab.
const Lanes = 64

// transistor conduction classes, predecoded at compile time.
const (
	condClassOn1    = iota // conducts while gate is high (n-enhancement)
	condClassOn0           // conducts while gate is low (p-enhancement)
	condClassAlways        // depletion loads, wire resistors
)

// Batch is a compiled vectorized simulator bound to one network. Compile
// once with NewBatch, then stream any number of vector batches through
// Run; slab state is reused across calls.
type Batch struct {
	nw     *netlist.Network
	c      *netlist.Compact
	size   []Strength
	inputs []*netlist.Node

	// Per-transistor columns (from the Compact, plus predecoded class
	// and strength cap).
	tGate  []int32
	tClass []uint8
	tCap   []Strength

	// Slab state, one word (64 lanes) per node unless noted.
	p0, p1 []uint64 // stored value planes
	driven []uint64 // lanes where the node is an Ω source
	dval   []uint64 // driven value plane (bit set = driven high)
	oscm   []uint64 // lanes forced to X by oscillation recovery
	chm    []uint64 // lanes changed in the previous sweep

	// Resolution plane stacks, 5 words per node (levels K1..Ω).
	dh, dl, ph, pl []uint64

	// Per-transistor per-sweep conduction lane masks.
	onm, mbm []uint64

	// Sweep scratch: seeds, the region they grow into, the worklist.
	seeds, region, wq []int32
	inr, inq          []bool
}

// BatchResult is the outcome of one Run.
type BatchResult struct {
	// Vectors is the number of vectors simulated.
	Vectors int
	// Sweeps is the total settle sweep count across all slabs.
	Sweeps int
	// Out holds, per vector, the settled values of the watched nodes.
	Out [][]Value
	// Osc flags vectors where some node failed to stabilize and was
	// forced to X.
	Osc []bool
}

// NewBatch compiles nw for vectorized simulation. The compiled form reuses
// the netlist.Compact CSR adjacency (gate refs for conduction, channel
// term refs for strength propagation) in identity layout.
func NewBatch(nw *netlist.Network) *Batch {
	n := len(nw.Nodes)
	b := &Batch{
		nw:     nw,
		c:      netlist.Compile(nw),
		size:   NodeSizes(nw),
		inputs: nw.Inputs(),
		tGate:  make([]int32, len(nw.Trans)),
		tClass: make([]uint8, len(nw.Trans)),
		tCap:   make([]Strength, len(nw.Trans)),
		p0:     make([]uint64, n),
		p1:     make([]uint64, n),
		driven: make([]uint64, n),
		dval:   make([]uint64, n),
		oscm:   make([]uint64, n),
		chm:    make([]uint64, n),
		dh:     make([]uint64, 5*n),
		dl:     make([]uint64, 5*n),
		ph:     make([]uint64, 5*n),
		pl:     make([]uint64, 5*n),
		onm:    make([]uint64, len(nw.Trans)),
		mbm:    make([]uint64, len(nw.Trans)),
		wq:     make([]int32, 0, n),
		inr:    make([]bool, n),
		inq:    make([]bool, n),
	}
	for i, t := range nw.Trans {
		b.tGate[i] = int32(t.Gate.Index)
		b.tCap[i] = DeviceStrength(t)
		switch {
		case t.AlwaysOn():
			b.tClass[i] = condClassAlways
		case t.ConductsOn() == 1:
			b.tClass[i] = condClassOn1
		default:
			b.tClass[i] = condClassOn0
		}
	}
	return b
}

// Inputs returns the input nodes the vector columns map to, in node index
// order.
func (b *Batch) Inputs() []*netlist.Node { return b.inputs }

// Columns maps the columns of a vector source onto the engine's input
// columns (Inputs() order). Build with Batch.Columns.
type Columns struct {
	// Names are the mapped inputs, in vector column order.
	Names []string
	ni    int   // engine input columns
	cols  []int // vector column -> engine input column
}

// Columns maps vector columns onto the named inputs, in order; with no
// names every input maps, in Inputs() order. An input no column names
// stays released in every row.
func (b *Batch) Columns(names []string) (*Columns, error) {
	c := &Columns{Names: names, ni: len(b.inputs)}
	colOf := make(map[string]int, len(b.inputs))
	for i, n := range b.inputs {
		colOf[n.Name] = i
		if len(names) == 0 {
			c.Names = append(c.Names, n.Name)
		}
	}
	for _, name := range c.Names {
		i, ok := colOf[name]
		if !ok {
			return nil, fmt.Errorf("%q is not an input node", name)
		}
		c.cols = append(c.cols, i)
	}
	return c, nil
}

// AppendRow parses one vector row (see ParseVector) and appends it to vecs
// as a full-width Run vector, unmapped inputs released. echo is the row's
// symbols in canonical form ("0", "1", "X", no blanks).
func (c *Columns) AppendRow(vecs []Value, row string) (_ []Value, echo string, err error) {
	vals, err := ParseVector(row, len(c.cols))
	if err != nil {
		return vecs, "", err
	}
	base := len(vecs)
	for range c.ni {
		vecs = append(vecs, VX)
	}
	sym := make([]byte, len(vals))
	for i, v := range vals {
		vecs[base+c.cols[i]] = v
		sym[i] = v.String()[0]
	}
	return vecs, string(sym), nil
}

// ParseVector parses one row of 0/1/X symbols into ni values; blanks and
// tabs between symbols are ignored.
func ParseVector(row string, ni int) ([]Value, error) {
	vals := make([]Value, 0, ni)
	for _, r := range row {
		switch r {
		case '0':
			vals = append(vals, V0)
		case '1':
			vals = append(vals, V1)
		case 'x', 'X':
			vals = append(vals, VX)
		case ' ', '\t':
		default:
			return nil, fmt.Errorf("switchsim: bad vector symbol %q in %q", r, row)
		}
	}
	if len(vals) != ni {
		return nil, fmt.Errorf("switchsim: vector %q has %d symbols, want %d inputs", row, len(vals), ni)
	}
	return vals, nil
}

// Run streams vectors through the network. vecs holds one Value per input
// column per vector, row-major (vector k occupies vecs[k*ni : (k+1)*ni]
// in Inputs() order); a VX symbol leaves that input released. watch lists
// the nodes whose settled values are reported per vector; nil reports
// every node, indexed like Network.Nodes.
//
// Each vector settles from power-on state, independently of every other
// vector — batch runs are stateless functional regressions, not
// sequential simulations.
func (b *Batch) Run(vecs []Value, watch []*netlist.Node) (*BatchResult, error) {
	ni := len(b.inputs)
	if ni == 0 {
		return nil, fmt.Errorf("switchsim: network has no input nodes to vector")
	}
	if len(vecs)%ni != 0 {
		return nil, fmt.Errorf("switchsim: %d vector values is not a multiple of %d inputs", len(vecs), ni)
	}
	k := len(vecs) / ni
	res := &BatchResult{
		Vectors: k,
		Out:     make([][]Value, k),
		Osc:     make([]bool, k),
	}
	for base := 0; base < k; base += Lanes {
		lanes := min(Lanes, k-base)
		b.loadSlab(vecs[base*ni:], lanes)
		res.Sweeps += b.settleSlab()
		b.extract(res, base, lanes, watch)
	}
	return res, nil
}

// loadSlab resets slab state to power-on and drives the definite symbols
// of the next `lanes` vectors. Unused lanes of the last slab run as
// all-released vectors; they can prolong a slab's sweep loop but cannot
// affect other lanes, and they are never extracted.
func (b *Batch) loadSlab(vecs []Value, lanes int) {
	ni := len(b.inputs)
	for i := range b.p0 {
		b.p0[i] = ^uint64(0) // everything starts as X charge
		b.p1[i] = ^uint64(0)
		b.driven[i] = 0
		b.dval[i] = 0
		b.oscm[i] = 0
		b.chm[i] = 0
	}
	vdd, gnd := b.nw.Vdd().Index, b.nw.GND().Index
	b.driven[vdd] = ^uint64(0)
	b.dval[vdd] = ^uint64(0)
	b.p0[vdd], b.p1[vdd] = 0, ^uint64(0)
	b.driven[gnd] = ^uint64(0)
	b.p0[gnd], b.p1[gnd] = ^uint64(0), 0
	for lane := 0; lane < lanes; lane++ {
		bit := uint64(1) << lane
		row := vecs[lane*ni : (lane+1)*ni]
		for i, v := range row {
			if v == VX {
				continue // released: stays Ω-size X charge
			}
			idx := b.inputs[i].Index
			b.driven[idx] |= bit
			if v == V1 {
				b.dval[idx] |= bit
				b.p0[idx] &^= bit
			} else {
				b.p1[idx] &^= bit
			}
		}
	}
}

// settleSlab runs synchronous sweeps until every lane is stable, mirroring
// Sim.Settle sweep for sweep: identical iteration bounds, identical
// oscillation recovery, with the per-lane trajectory of every node equal
// to the scalar engine's.
//
// Like Sim.Settle, a sweep after the first seeds only the nodes that changed
// in some lane and the channel terminals of the devices they gate: any other
// component kept its values and device masks, so its stored planes are
// still its least fixed point and it would commit no change.
func (b *Batch) settleSlab() int {
	numNodes := len(b.nw.Nodes)
	limit := 20 + 2*numNodes
	hard := 2*limit + 2*numNodes
	b.seeds = b.seeds[:0]
	for n := range numNodes {
		b.resetPlanes(n) // a node driven in every lane keeps these planes
		b.seeds = append(b.seeds, int32(n))
	}
	for t := range b.tGate {
		b.decode(t)
	}
	sweeps := 0
	for {
		sweeps++
		xmode := sweeps > limit
		if sweeps > hard {
			// Safety net: abandon whatever still ping-pongs.
			for n := 0; n < numNodes; n++ {
				force := b.chm[n] &^ b.driven[n] &^ (b.p0[n] & b.p1[n])
				b.oscm[n] |= force
				b.p0[n] |= force
				b.p1[n] |= force
			}
			break
		}
		changed := uint64(0)
		b.relax()
		b.seeds = b.seeds[:0]
		for _, r := range b.region {
			n := int(r)
			b.inr[n] = false
			n1, n0 := b.finalize(n)
			n1 = (n1 &^ b.driven[n]) | (b.driven[n] & b.dval[n])
			n0 = (n0 &^ b.driven[n]) | (b.driven[n] &^ b.dval[n])
			ch := (n1 ^ b.p1[n]) | (n0 ^ b.p0[n])
			if xmode {
				// Oscillation recovery: lanes still changing after the
				// sweep limit have no stable value — they become X, and
				// X then spreads monotonically until the loop quiesces.
				force := ch &^ b.driven[n]
				b.oscm[n] |= force &^ (n1 & n0)
				n1 |= force
				n0 |= force
				ch = (n1 ^ b.p1[n]) | (n0 ^ b.p0[n])
			}
			b.chm[n] = ch
			b.p1[n] = n1
			b.p0[n] = n0
			if ch == 0 {
				continue
			}
			changed |= ch
			b.seeds = append(b.seeds, r)
			for _, g := range b.c.Gates(n) {
				t, _ := netlist.UnpackGateRef(g)
				b.decode(t)
				b.seeds = append(b.seeds, b.c.TransA[t], b.c.TransB[t])
			}
		}
		if changed == 0 {
			break
		}
	}
	return sweeps
}

const allLanes = ^uint64(0) // a lane mask with every lane set

// decode sets device t's per-lane conduction masks from its gate's value
// planes.
func (b *Batch) decode(t int) {
	g := b.tGate[t]
	gx := b.p0[g] & b.p1[g]
	switch b.tClass[t] {
	case condClassAlways:
		b.onm[t] = allLanes
		b.mbm[t] = 0
	case condClassOn1:
		b.onm[t] = b.p1[g] &^ b.p0[g]
		b.mbm[t] = gx
	default:
		b.onm[t] = b.p0[g] &^ b.p1[g]
		b.mbm[t] = gx
	}
}

// resetPlanes sets node n's resolution planes to its base contribution.
func (b *Batch) resetPlanes(n int) {
	drivenHi := b.driven[n] & b.dval[n]
	drivenLo := b.driven[n] &^ b.dval[n]
	chargeHi := b.p1[n] &^ b.driven[n]
	chargeLo := b.p0[n] &^ b.driven[n]
	sz := b.size[n]
	for s := Strength(1); s <= SOmega; s++ {
		dh, dl := drivenHi, drivenLo
		if s <= sz {
			dh |= chargeHi
			dl |= chargeLo
		}
		i := 5*n + int(s) - 1
		b.dh[i] = dh
		b.dl[i] = dl
		b.ph[i] = dh
		b.pl[i] = dl
	}
}

// relax grows the seeds into b.region, their channel components through
// devices active in some lane, and relaxes it to the least fixed point.
// Bits only ever turn on, so this terminates, and the fixed point is
// order-independent — the property that pins this engine to Sim.
func (b *Batch) relax() {
	b.region, b.wq = b.region[:0], b.wq[:0]
	for _, s := range b.seeds {
		b.enter(int(s))
	}
	for head := 0; head < len(b.wq); head++ {
		n := int(b.wq[head])
		b.inq[n] = false
		for _, ref := range b.c.Terms(n) {
			t, o := b.across(ref, n)
			if o == n || b.driven[o] == allLanes {
				continue
			}
			b.enter(o)
			if b.spread(t, n, o) && !b.inq[o] {
				b.inq[o] = true
				b.wq = append(b.wq, int32(o))
			}
		}
	}
}

// enter adds node n to the region and the worklist, reset to its base plus
// what neighbors driven in every lane (the region's bound) drive in.
func (b *Batch) enter(n int) {
	if b.inr[n] || b.driven[n] == allLanes {
		return
	}
	b.inr[n] = true
	b.region = append(b.region, int32(n))
	b.resetPlanes(n)
	for _, ref := range b.c.Terms(n) {
		if t, o := b.across(ref, n); o != n && b.driven[o] == allLanes {
			b.spread(t, o, n)
		}
	}
	b.inq[n] = true
	b.wq = append(b.wq, int32(n))
}

// across returns the device of node n's channel ref and its other
// terminal, or n itself for a device off in every lane, which like a
// self-loop channel has no effect.
func (b *Batch) across(ref int32, n int) (t, o int) {
	t, _ = netlist.UnpackTermRef(ref)
	if b.onm[t]|b.mbm[t] == 0 {
		return t, n
	}
	o = int(b.c.TransA[t])
	if o == n {
		o = int(b.c.TransB[t])
	}
	return t, o
}

// spread propagates node n's planes across device t into node o, levels
// 1..cap(t), in the lanes where t conducts (definitely, for the definite
// planes) and o is not a source. It reports whether o grew.
func (b *Batch) spread(t, n, o int) bool {
	on, act := b.onm[t], b.onm[t]|b.mbm[t]
	notSrc := ^b.driven[o]
	grow := uint64(0)
	for s := Strength(1); s <= b.tCap[t]; s++ {
		i := 5*o + int(s) - 1
		j := 5*n + int(s) - 1
		add := b.dh[j] & on & notSrc &^ b.dh[i]
		b.dh[i] |= add
		grow |= add
		add = b.dl[j] & on & notSrc &^ b.dl[i]
		b.dl[i] |= add
		grow |= add
		add = b.ph[j] & act & notSrc &^ b.ph[i]
		b.ph[i] |= add
		grow |= add
		add = b.pl[j] & act & notSrc &^ b.pl[i]
		b.pl[i] |= add
		grow |= add
	}
	return grow != 0
}

// finalize reduces node n's resolved planes to new value planes: at each
// lane's strongest occupied level, a lone high is 1 and a lone low is 0,
// a conflict is X, and an opposing potential at or above the winning
// strength overturns a definite value to X — the bit-parallel form of
// nodeSig.value.
func (b *Batch) finalize(n int) (n1, n0 uint64) {
	var one, zero, x, occAbove uint64
	for s := SOmega; s >= SK1; s-- {
		i := 5*n + int(s) - 1
		dh, dl := b.dh[i], b.dl[i]
		top := (dh | dl) &^ occAbove
		d1 := top & dh &^ dl
		d0 := top & dl &^ dh
		x |= (top & dh & dl) | (d1 & b.pl[i]) | (d0 & b.ph[i])
		one |= d1 &^ b.pl[i]
		zero |= d0 &^ b.ph[i]
		occAbove |= dh | dl
	}
	return one | x, zero | x
}

// extract decodes the settled lanes into per-vector results.
func (b *Batch) extract(res *BatchResult, base, lanes int, watch []*netlist.Node) {
	oscAny := uint64(0)
	for n := range b.oscm {
		oscAny |= b.oscm[n]
	}
	for lane := 0; lane < lanes; lane++ {
		bit := uint64(1) << lane
		var out []Value
		if watch == nil {
			out = make([]Value, len(b.nw.Nodes))
			for n := range out {
				out[n] = b.laneValue(n, bit)
			}
		} else {
			out = make([]Value, len(watch))
			for i, w := range watch {
				out[i] = b.laneValue(w.Index, bit)
			}
		}
		res.Out[base+lane] = out
		res.Osc[base+lane] = oscAny&bit != 0
	}
}

// laneValue decodes one node's value in one lane.
func (b *Batch) laneValue(n int, bit uint64) Value {
	lo := b.p0[n]&bit != 0
	hi := b.p1[n]&bit != 0
	switch {
	case lo && hi:
		return VX
	case hi:
		return V1
	default:
		return V0
	}
}

// Stats reports compiled-size numbers for logs and metrics.
func (b *Batch) Stats() (nodes, devices, inputs int) {
	return len(b.nw.Nodes), len(b.tGate), len(b.inputs)
}
