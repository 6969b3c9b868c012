package switchsim

// The switch-level kernel: the one solver of Bryant's strength lattice,
// evaluated in bit-plane form over a word of lanes, one circuit state per
// lane. Batch runs it on 64-lane words, one input vector per lane; Sim runs
// it on 8-lane words with its one state copied into every lane.
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
// over independent lanes.
//
// A settle is a loop of synchronous (Jacobi) sweeps: conduction is frozen
// from the lanes' current values, the channel fixed point is solved against
// that frozen state, every new value commits together, repeat — past a
// sweep limit still-changing lanes are forced to X. The scalar resolver in
// reference_test.go, which stages each group's fixed point as
// driven-then-charged, is the test reference: per lane, this kernel is
// bit-identical to it sweep by sweep (FuzzBatchSim, TestBatchMatchesScalar,
// TestSimMatchesReference). The join is monotone and the least fixed point
// unique, so the kernel solves the same fixed point unstaged.

import (
	"repro/internal/netlist"
)

// word is a kernel lane word: bit i holds lane i.
type word interface{ ~uint8 | ~uint64 }

// kernel is one network's lattice state in W-wide lanes and the settle that
// brings it to its fixed point. A front sets the value planes and driven
// masks, fills seeds, and calls settle.
type kernel[W word] struct {
	nw   *netlist.Network
	c    *netlist.Compact
	size []Strength // build-time node size
	tCap []Strength // strength cap per device

	// Lane state, one word per node.
	p0, p1 []W // stored value planes
	driven []W // lanes where the node is an Ω source
	dval   []W // driven value plane (bit set = driven high)
	oscm   []W // lanes forced to X by oscillation recovery in the last settle
	chm    []W // lanes changed in the previous sweep

	// Resolution plane stacks, 5 words per node (levels K1..Ω).
	dh, dl, ph, pl []W

	// Per-device conduction lane masks: on, and maybe on (gate at X).
	onm, mbm []W

	// Sweep scratch: seeds, the region they grow into, the worklist.
	seeds, region, wq []int32
	inr, inq          []bool
}

// newKernel binds a kernel to nw and its compile c, at power-on.
func newKernel[W word](nw *netlist.Network, c *netlist.Compact) kernel[W] {
	n, nt := len(nw.Nodes), len(nw.Trans)
	k := kernel[W]{
		nw: nw, c: c,
		size:   NodeSizes(nw),
		tCap:   make([]Strength, nt),
		p0:     make([]W, n),
		p1:     make([]W, n),
		driven: make([]W, n),
		dval:   make([]W, n),
		oscm:   make([]W, n),
		chm:    make([]W, n),
		dh:     make([]W, 5*n),
		dl:     make([]W, 5*n),
		ph:     make([]W, 5*n),
		pl:     make([]W, 5*n),
		onm:    make([]W, nt),
		mbm:    make([]W, nt),
		inr:    make([]bool, n),
		inq:    make([]bool, n),
	}
	for i, t := range nw.Trans {
		k.tCap[i] = DeviceStrength(t)
		if t.AlwaysOn() {
			k.onm[i] = ^W(0) // in no gate list, so never decoded again
		}
	}
	k.powerOn()
	return k
}

// powerOn drives the rails and leaves every other node undriven X charge.
func (k *kernel[W]) powerOn() {
	for i := range k.p0 {
		k.p0[i], k.p1[i] = ^W(0), ^W(0)
		k.driven[i], k.dval[i] = 0, 0
	}
	vdd, gnd := k.nw.Vdd().Index, k.nw.GND().Index
	k.driven[vdd], k.dval[vdd], k.p0[vdd] = ^W(0), ^W(0), 0
	k.driven[gnd], k.p1[gnd] = ^W(0), 0
}

// seedAll seeds a settle from scratch: every node, from its base planes,
// with every device decoded.
func (k *kernel[W]) seedAll() {
	k.rebase()
	k.seeds = k.seeds[:0]
	for n := range k.p0 {
		k.seeds = append(k.seeds, int32(n))
	}
}

// rebase decodes every device from the current values and resets the
// planes of every node driven in every lane to its base contribution: such
// a node bounds every region and never enters one, and any other node's
// planes are reset when it enters a region, before they are read.
func (k *kernel[W]) rebase() {
	for n := range k.p0 {
		if k.driven[n] == ^W(0) {
			k.resetPlanes(n)
		}
		k.decodeGated(n)
	}
}

// settle runs synchronous sweeps from k.seeds until every lane is stable and
// returns the sweep count, 0 when there is nothing to seed. The first sweep
// resolves the seeds' channel components; each later sweep seeds only the
// nodes that changed in some lane and the channel terminals of the devices
// they gate: any other component kept its values and device masks, so its
// stored planes are still its least fixed point and it would commit no
// change.
func (k *kernel[W]) settle() int {
	clear(k.oscm)
	clear(k.chm)
	if len(k.seeds) == 0 {
		return 0
	}
	numNodes := len(k.p0)
	limit := 20 + 2*numNodes
	hard := 2*limit + 2*numNodes
	sweeps := 0
	for {
		sweeps++
		xmode := sweeps > limit
		if sweeps > hard {
			// Safety net: abandon whatever still ping-pongs.
			for n := 0; n < numNodes; n++ {
				force := k.chm[n] &^ k.driven[n] &^ (k.p0[n] & k.p1[n])
				k.oscm[n] |= force
				k.p0[n] |= force
				k.p1[n] |= force
			}
			break
		}
		changed := W(0)
		k.relax()
		k.seeds = k.seeds[:0]
		for _, r := range k.region {
			n := int(r)
			k.inr[n] = false
			n1, n0 := k.finalize(n)
			n1 = (n1 &^ k.driven[n]) | (k.driven[n] & k.dval[n])
			n0 = (n0 &^ k.driven[n]) | (k.driven[n] &^ k.dval[n])
			ch := (n1 ^ k.p1[n]) | (n0 ^ k.p0[n])
			if xmode {
				// Oscillation recovery: lanes still changing after the
				// sweep limit have no stable value — they become X, and
				// X then spreads monotonically until the loop quiesces.
				force := ch &^ k.driven[n]
				k.oscm[n] |= force &^ (n1 & n0)
				n1 |= force
				n0 |= force
				ch = (n1 ^ k.p1[n]) | (n0 ^ k.p0[n])
			}
			k.chm[n] = ch
			k.p1[n] = n1
			k.p0[n] = n0
			if ch == 0 {
				continue
			}
			changed |= ch
			k.decodeGated(n)
			k.seedGated(n)
		}
		if changed == 0 {
			break
		}
	}
	return sweeps
}

// decodeGated sets the conduction masks of every device node g gates from
// g's value planes.
func (k *kernel[W]) decodeGated(g int) {
	hi, lo := k.p1[g], k.p0[g]
	for _, ref := range k.c.Gates(g) {
		t, on1 := netlist.UnpackGateRef(ref)
		k.mbm[t] = hi & lo
		if on1 {
			k.onm[t] = hi &^ lo
		} else {
			k.onm[t] = lo &^ hi
		}
	}
}

// seedGated seeds node n and both channel terminals of every device it
// gates.
func (k *kernel[W]) seedGated(n int) {
	k.seeds = append(k.seeds, int32(n))
	for _, ref := range k.c.Gates(n) {
		t, _ := netlist.UnpackGateRef(ref)
		k.seeds = append(k.seeds, k.c.TransA[t], k.c.TransB[t])
	}
}

// resetPlanes sets node n's resolution planes to its base contribution.
func (k *kernel[W]) resetPlanes(n int) {
	drivenHi := k.driven[n] & k.dval[n]
	drivenLo := k.driven[n] &^ k.dval[n]
	chargeHi := k.p1[n] &^ k.driven[n]
	chargeLo := k.p0[n] &^ k.driven[n]
	sz := k.size[n]
	for s := Strength(1); s <= SOmega; s++ {
		dh, dl := drivenHi, drivenLo
		if s <= sz {
			dh |= chargeHi
			dl |= chargeLo
		}
		i := 5*n + int(s) - 1
		k.dh[i] = dh
		k.dl[i] = dl
		k.ph[i] = dh
		k.pl[i] = dl
	}
}

// relax grows the seeds into k.region, their channel components through
// devices active in some lane, and relaxes it to the least fixed point.
// Bits only ever turn on, so this terminates, and the fixed point is
// order-independent.
func (k *kernel[W]) relax() {
	k.region, k.wq = k.region[:0], k.wq[:0]
	for _, s := range k.seeds {
		k.enter(int(s))
	}
	for head := 0; head < len(k.wq); head++ {
		n := int(k.wq[head])
		k.inq[n] = false
		for _, ref := range k.c.Terms(n) {
			t, o := k.across(ref, n)
			if o == n || k.driven[o] == ^W(0) {
				continue
			}
			k.enter(o)
			if k.spread(t, n, o) && !k.inq[o] {
				k.inq[o] = true
				k.wq = append(k.wq, int32(o))
			}
		}
	}
}

// enter adds node n to the region and the worklist, reset to its base plus
// what neighbors driven in every lane (the region's bound) drive in.
func (k *kernel[W]) enter(n int) {
	if k.inr[n] || k.driven[n] == ^W(0) {
		return
	}
	k.inr[n] = true
	k.region = append(k.region, int32(n))
	k.resetPlanes(n)
	for _, ref := range k.c.Terms(n) {
		if t, o := k.across(ref, n); o != n && k.driven[o] == ^W(0) {
			k.spread(t, o, n)
		}
	}
	k.inq[n] = true
	k.wq = append(k.wq, int32(n))
}

// across returns the device of node n's channel ref and its other
// terminal, or n itself for a device off in every lane, which like a
// self-loop channel has no effect.
func (k *kernel[W]) across(ref int32, n int) (t, o int) {
	t, _ = netlist.UnpackTermRef(ref)
	if k.onm[t]|k.mbm[t] == 0 {
		return t, n
	}
	o = int(k.c.TransA[t])
	if o == n {
		o = int(k.c.TransB[t])
	}
	return t, o
}

// spread propagates node n's planes across device t into node o, levels
// 1..cap(t), in the lanes where t conducts (definitely, for the definite
// planes) and o is not a source. It reports whether o grew.
func (k *kernel[W]) spread(t, n, o int) bool {
	on, act := k.onm[t], k.onm[t]|k.mbm[t]
	notSrc := ^k.driven[o]
	grow := W(0)
	for s := Strength(1); s <= k.tCap[t]; s++ {
		i := 5*o + int(s) - 1
		j := 5*n + int(s) - 1
		add := k.dh[j] & on & notSrc &^ k.dh[i]
		k.dh[i] |= add
		grow |= add
		add = k.dl[j] & on & notSrc &^ k.dl[i]
		k.dl[i] |= add
		grow |= add
		add = k.ph[j] & act & notSrc &^ k.ph[i]
		k.ph[i] |= add
		grow |= add
		add = k.pl[j] & act & notSrc &^ k.pl[i]
		k.pl[i] |= add
		grow |= add
	}
	return grow != 0
}

// finalize reduces node n's resolved planes to new value planes: at each
// lane's strongest occupied level, a lone high is 1 and a lone low is 0,
// a conflict is X, and an opposing potential at or above the winning
// strength overturns a definite value to X.
func (k *kernel[W]) finalize(n int) (n1, n0 W) {
	var one, zero, x, occAbove W
	for s := SOmega; s >= SK1; s-- {
		i := 5*n + int(s) - 1
		dh, dl := k.dh[i], k.dl[i]
		top := (dh | dl) &^ occAbove
		d1 := top & dh &^ dl
		d0 := top & dl &^ dh
		x |= (top & dh & dl) | (d1 & k.pl[i]) | (d0 & k.ph[i])
		one |= d1 &^ k.pl[i]
		zero |= d0 &^ k.ph[i]
		occAbove |= dh | dl
	}
	return one | x, zero | x
}

// value decodes node n's value in the lane of bit.
func (k *kernel[W]) value(n int, bit W) Value {
	lo := k.p0[n]&bit != 0
	hi := k.p1[n]&bit != 0
	switch {
	case lo && hi:
		return VX
	case hi:
		return V1
	default:
		return V0
	}
}
