// Package switchsim is a three-valued switch-level logic simulator in the
// tradition of Bryant's MOSSIM and esim/IRSIM: node values are {0, 1, X},
// signals carry strengths drawn from a totally ordered lattice
// (Ω > G1 > G2 > K2 > K1), and networks settle by fixed-point iteration
// over channel-connected groups.
//
// Node sizes are assigned at build time: rails and chip inputs are Ω
// (their state is externally imposed), precharged or high-capacitance
// storage nodes are K2, and every other storage node is K1. Transistor
// strengths come from the device type: depletion pullups conduct at G2,
// everything else at G1, and wire resistors are transparent. Charge
// sharing, ratioed logic, and X-propagation all fall out of joining
// (strength, value) pairs over this lattice — there are no ad-hoc rules.
//
// The timing verifier uses the simulator to establish steady-state node
// values (which transistors definitely conduct, which definitely do not),
// and the test suite uses it to verify the functional correctness of every
// generated circuit — an ALU that doesn't add is not worth timing. The
// vectorized Batch engine (batch.go) streams thousands of vectors through
// the same lattice in bit-plane form and is pinned bit-identical to this
// scalar engine, which is the reference implementation.
package switchsim

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// Value is a ternary logic value.
type Value uint8

const (
	// V0 is logic low.
	V0 Value = iota
	// V1 is logic high.
	V1
	// VX is unknown/conflict.
	VX
)

// String renders the value as "0", "1" or "X".
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return "X"
	}
}

// Bool converts a definite value to a bool; ok is false for VX.
func (v Value) Bool() (b, ok bool) {
	switch v {
	case V0:
		return false, true
	case V1:
		return true, true
	}
	return false, false
}

// ParseValue parses a value written "0", "1" or "X" (or "x").
func ParseValue(s string) (Value, error) {
	switch s {
	case "0":
		return V0, nil
	case "1":
		return V1, nil
	case "X", "x":
		return VX, nil
	}
	return VX, fmt.Errorf("switchsim: bad value %q (want 0, 1 or X)", s)
}

// FromBool converts a bool to V0/V1.
func FromBool(b bool) Value {
	if b {
		return V1
	}
	return V0
}

// Strength is a signal strength in Bryant's totally ordered lattice,
// weakest to strongest. K1/K2 are node sizes (stored charge), G2/G1 are
// transistor drive strengths, and Ω is an externally imposed input.
type Strength uint8

const (
	// SNone is the absence of a contribution.
	SNone Strength = iota
	// SK1 is stored charge on an ordinary storage node.
	SK1
	// SK2 is stored charge on a large node: precharged buses and other
	// deliberately loaded capacitors that dominate ordinary charge in a
	// sharing event.
	SK2
	// SG2 is drive through a depletion-mode pullup — the weak side of
	// every ratioed-nMOS fight.
	SG2
	// SG1 is drive through an on enhancement transistor.
	SG1
	// SOmega is the strength of rails and driven inputs: unoverridable.
	SOmega
)

// String renders the strength in the paper's notation.
func (s Strength) String() string {
	switch s {
	case SK1:
		return "K1"
	case SK2:
		return "K2"
	case SG2:
		return "G2"
	case SG1:
		return "G1"
	case SOmega:
		return "Ω"
	}
	return "-"
}

// K2CapFloor is the total node capacitance (farads) at or above which a
// storage node is assigned size K2 rather than K1. 100 fF is an order of
// magnitude above a routine gate load in the built-in technology, so only
// deliberately loaded nodes (buses, long wires, big fanout nets) cross it.
const K2CapFloor = 100e-15

// NodeSizes assigns every node its build-time size: Ω for rails and chip
// inputs, K2 for precharged or high-capacitance storage, K1 otherwise.
// Both the scalar and the batch engine derive their sizes from this one
// function, so the two can never disagree on the lattice.
func NodeSizes(nw *netlist.Network) []Strength {
	sizes := make([]Strength, len(nw.Nodes))
	for _, n := range nw.Nodes {
		sizes[n.Index] = SizeOf(nw, n)
	}
	return sizes
}

// SizeOf is node n's build-time size. Capacitance and device geometry reach
// the lattice only through it — through NodeCap against K2CapFloor — so an
// edit that leaves every node's size alone leaves the lattice alone.
func SizeOf(nw *netlist.Network, n *netlist.Node) Strength {
	switch {
	case n.IsRail() || n.Kind == netlist.KindInput:
		return SOmega
	case n.Precharged || nw.NodeCap(n) >= K2CapFloor:
		return SK2
	}
	return SK1
}

// DeviceStrength returns the maximum strength a signal retains after
// passing through a transistor's channel: G2 through depletion loads, G1
// through enhancement devices. Wire resistors are transparent — a driven
// signal stays driven across interconnect.
func DeviceStrength(t *netlist.Trans) Strength {
	switch t.Type {
	case tech.NDep:
		return SG2
	case tech.RWire:
		return SOmega
	}
	return SG1
}

// sig is a strength/value pair, the element of the resolution lattice.
type sig struct {
	s Strength
	v Value
}

// combine joins two contributions: higher strength wins, equal strengths
// with disagreeing values yield X.
func combine(a, b sig) sig {
	switch {
	case a.s > b.s:
		return a
	case b.s > a.s:
		return b
	case a.v == b.v:
		return a
	default:
		return sig{a.s, VX}
	}
}

// conduction describes whether a transistor's channel conducts under the
// current gate value.
type conduction uint8

const (
	condOff conduction = iota
	condOn
	condMaybe
)

// Sim is a simulator instance bound to one network. Create with New, set
// inputs, call Settle, read values.
type Sim struct {
	nw     *netlist.Network
	size   []Strength // build-time node size per index
	val    []Value    // current value per node index
	fixed  []bool     // rails and driven inputs
	osc    []bool     // nodes forced to X by oscillation detection
	settle int        // settle calls, for diagnostics

	// scratch reused across Settle calls
	dirty      []bool
	queue      []int
	work       []int // the queue of the sweep being resolved
	seeds      []int
	stack      []int
	groupID    []int // epoch stamp per node; == groupEpoch means visited this sweep
	groupEpoch int

	// Dense resolution scratch: sigs[i] is node i's state in the group being
	// resolved, valid while sigID[i] == sigEpoch (one epoch per group, so
	// nothing is cleared between groups); group and changed are the member
	// list and the proposed changes, rebuilt per group and per sweep.
	sigs     []nodeSig
	sigID    []int
	sigEpoch int
	group    []int
	changed  []change
}

// New creates a simulator with rails at their fixed values and every other
// node at X.
func New(nw *netlist.Network) *Sim {
	s := &Sim{
		nw:      nw,
		size:    NodeSizes(nw),
		val:     make([]Value, len(nw.Nodes)),
		fixed:   make([]bool, len(nw.Nodes)),
		osc:     make([]bool, len(nw.Nodes)),
		dirty:   make([]bool, len(nw.Nodes)),
		groupID: make([]int, len(nw.Nodes)),
		sigs:    make([]nodeSig, len(nw.Nodes)),
		sigID:   make([]int, len(nw.Nodes)),
	}
	s.Reset()
	return s
}

// Reset restores the power-on state: rails at their values, every other
// node released to X, no oscillation flags. The next Settle evaluates the
// whole network, exactly like a freshly constructed Sim.
func (s *Sim) Reset() {
	for i := range s.val {
		s.val[i] = VX
		s.fixed[i] = false
		s.osc[i] = false
		s.dirty[i] = false
	}
	s.queue = s.queue[:0]
	s.settle = 0
	s.val[s.nw.Vdd().Index] = V1
	s.fixed[s.nw.Vdd().Index] = true
	s.val[s.nw.GND().Index] = V0
	s.fixed[s.nw.GND().Index] = true
}

// NodeSize returns the build-time size of node n.
func (s *Sim) NodeSize(n *netlist.Node) Strength { return s.size[n.Index] }

// SetInput drives node n to value v as an Ω source. Rails cannot be
// overridden. Passing VX releases the node back to undriven unknown.
func (s *Sim) SetInput(n *netlist.Node, v Value) error {
	if n.IsRail() {
		return fmt.Errorf("switchsim: cannot drive rail %s", n.Name)
	}
	if v == VX {
		s.fixed[n.Index] = false
		s.val[n.Index] = VX
	} else {
		s.fixed[n.Index] = true
		s.val[n.Index] = v
	}
	s.markDirty(n.Index)
	return nil
}

// SetValue overwrites node n's *stored* value without driving it: the
// node keeps charge-strength state (its size, K1 or K2), as if it had been
// driven earlier and then released. Clocked analyses use this to carry
// latched state across phases. Rails cannot be overwritten.
func (s *Sim) SetValue(n *netlist.Node, v Value) error {
	if n.IsRail() {
		return fmt.Errorf("switchsim: cannot overwrite rail %s", n.Name)
	}
	if s.fixed[n.Index] {
		return fmt.Errorf("switchsim: %s is driven; release it before SetValue", n.Name)
	}
	s.val[n.Index] = v
	s.markDirty(n.Index)
	return nil
}

// SetInputName is SetInput by node name.
func (s *Sim) SetInputName(name string, v Value) error {
	n := s.nw.Lookup(name)
	if n == nil {
		return fmt.Errorf("switchsim: no node named %q", name)
	}
	return s.SetInput(n, v)
}

// Value returns the current value of node n.
func (s *Sim) Value(n *netlist.Node) Value { return s.val[n.Index] }

// ValueName returns the value of the named node, or VX if absent.
func (s *Sim) ValueName(name string) Value {
	n := s.nw.Lookup(name)
	if n == nil {
		return VX
	}
	return s.val[n.Index]
}

// Resume loads a settled state in place of the power-on one, so that the
// next Settle re-evaluates only what an edit can have changed. prev holds
// the values a Settle of the network's previous edit generation left, with
// the same fixed sources (set them with SetInput first) and the same nodes;
// seeds are the nodes whose lattice inputs the edit changed — the gate and
// terminals of every device it added or removed, and every node whose size
// it moved. Resume releases to X the forward lattice cone of the seeds: the
// closure over channel neighbours, through any device whatever its
// conduction, and over the terminals of every device a cone node gates,
// stopping only at rails and fixed nodes — the boundary collectGroup stops
// at. Every other node takes its value from prev, and the cone is marked
// dirty; whatever was queued before (the SetInput calls fixing the sources)
// is dropped, since prev already settled it. It returns the cone (a fresh
// slice, in visit order).
//
// The following Settle reaches exactly what a power-on Settle of the edited
// network reaches, unless either settle oscillates. A node outside the cone
// reads only nodes outside it, so from power-on it settles as it did before
// the edit; and the lattice is monotone in information order (X, the value
// that says least, below 0 and 1 — Bryant writes the same order the other
// way up, 0 < X and 1 < X), so iterating up from a state that is below the
// least fixed point and already stable outside the cone ends at that least
// fixed point, as the iteration up from all-X does.
func (s *Sim) Resume(prev []Value, seeds []int) []int {
	for _, i := range s.queue {
		s.dirty[i] = false
	}
	s.queue = s.queue[:0]
	s.groupEpoch++
	var cone []int
	visit := func(i int) {
		if s.groupID[i] != s.groupEpoch && !s.fixed[i] {
			s.groupID[i] = s.groupEpoch
			cone = append(cone, i)
		}
	}
	for _, i := range seeds {
		visit(i)
	}
	for qi := 0; qi < len(cone); qi++ {
		n := s.nw.Nodes[cone[qi]]
		for _, t := range n.Terms {
			if o := t.Other(n); o != nil {
				visit(o.Index)
			}
		}
		for _, t := range n.Gates {
			visit(t.A.Index)
			visit(t.B.Index)
		}
	}
	for i, v := range prev {
		if !s.fixed[i] {
			s.val[i] = v
		}
	}
	for _, i := range cone {
		s.val[i] = VX
		s.markDirty(i)
	}
	// The loaded state stands in for the first Settle's: the next one is
	// incremental from the cone.
	s.settle = max(s.settle, 1)
	return cone
}

// Oscillated reports whether the last Settle forced any node to X because
// it failed to stabilize (combinational feedback).
func (s *Sim) Oscillated() bool {
	for _, o := range s.osc {
		if o {
			return true
		}
	}
	return false
}

func (s *Sim) markDirty(idx int) {
	if !s.dirty[idx] {
		s.dirty[idx] = true
		s.queue = append(s.queue, idx)
	}
}

// conducts classifies transistor t's channel under current node values.
func (s *Sim) conducts(t *netlist.Trans) conduction {
	if t.AlwaysOn() {
		return condOn
	}
	g := s.val[t.Gate.Index]
	on := FromBool(t.ConductsOn() == 1)
	switch g {
	case on:
		return condOn
	case VX:
		return condMaybe
	default:
		return condOff
	}
}

// change is a value update proposed by a sweep, committed only after every
// group in the sweep has resolved.
type change struct {
	idx int
	v   Value
}

// Settle iterates until all node values are stable, or until the
// iteration bound is reached, in which case still-changing nodes are
// forced to X and marked as oscillating. It returns the number of sweeps
// performed. The first call evaluates everything; later calls are
// incremental from dirty nodes.
//
// Each sweep is synchronous (Jacobi): conduction states and stored values
// are frozen at the start of the sweep, every affected channel group is
// resolved to its lattice fixed point against that frozen state, and all
// new values commit together at the end of the sweep. The batch engine
// performs exactly the same global synchronous sweep per vector lane,
// which is what makes the two engines bit-identical sweep by sweep.
func (s *Sim) Settle() int {
	s.settle++
	if s.settle == 1 {
		// First settle: evaluate everything, including subnetworks not
		// reachable from any input (tied pullups, constant stages).
		for i := range s.nw.Nodes {
			s.markDirty(i)
		}
	}
	for i := range s.osc {
		s.osc[i] = false
	}
	limit := 20 + 2*len(s.nw.Nodes)
	hard := 2*limit + 2*len(s.nw.Nodes)
	sweeps := 0
	for len(s.queue) > 0 {
		sweeps++
		xmode := sweeps > limit
		if sweeps > hard {
			// Safety net: abandon whatever still ping-pongs.
			for _, idx := range s.queue {
				s.dirty[idx] = false
				if !s.fixed[idx] && s.val[idx] != VX {
					s.val[idx] = VX
					s.osc[idx] = true
				}
			}
			s.queue = s.queue[:0]
			break
		}
		// A dirty node re-resolves (a) channel groups containing or
		// adjacent to it and (b) the channels of every transistor it
		// gates, whose conduction may have changed. A gated channel
		// endpoint that is itself a strong source (a pullup's rail side)
		// contributes no group of its own — the affected group is reached
		// through the device's other terminal, so only that side seeds.
		// Seeding the rail instead would re-scan the rail's entire
		// terminal list, which is nearly the whole chip, every sweep.
		s.work, s.queue = s.queue, s.work[:0]
		seeds := s.seeds[:0]
		for _, idx := range s.work {
			s.dirty[idx] = false
			seeds = append(seeds, idx)
			for _, t := range s.nw.Nodes[idx].Gates {
				a, b := t.A.Index, t.B.Index
				if !s.nw.Nodes[a].IsRail() && !s.fixed[a] {
					seeds = append(seeds, a)
				}
				if !s.nw.Nodes[b].IsRail() && !s.fixed[b] {
					seeds = append(seeds, b)
				}
			}
		}
		s.seeds = seeds
		for _, ch := range s.resolveGroups(seeds) {
			nv := ch.v
			if xmode && !s.fixed[ch.idx] {
				// Oscillation recovery: a node still changing after the
				// sweep limit has no stable value — it becomes X, and X
				// then spreads monotonically until the loop quiesces.
				if nv != VX {
					s.osc[ch.idx] = true
				}
				nv = VX
			}
			if nv != s.val[ch.idx] {
				s.val[ch.idx] = nv
				s.markDirty(ch.idx)
			}
		}
	}
	return sweeps
}

// resolveGroups collects the channel-connected groups containing the seed
// nodes (through non-off transistors), resolves each against the frozen
// sweep state, and returns the proposed value changes. Nothing is written
// back here — the caller commits after the whole sweep resolves. The
// returned slice is the simulator's own and is rewritten by the next call.
func (s *Sim) resolveGroups(seeds []int) []change {
	// Visited marks are epoch-stamped: bumping the epoch invalidates every
	// mark from the previous sweep in O(1), where clearing the array would
	// cost a full-network scan per sweep.
	s.groupEpoch++
	s.changed = s.changed[:0]
	for _, seed := range seeds {
		n := s.nw.Nodes[seed]
		if n.IsRail() || s.fixed[seed] {
			// Strong sources are group boundaries, so a changed source
			// seeds the groups of its channel neighbors instead of its
			// own (which would be just itself).
			for _, t := range n.Terms {
				o := t.Other(n)
				if o == nil || s.groupID[o.Index] == s.groupEpoch ||
					o.IsRail() || s.fixed[o.Index] {
					continue
				}
				s.resolveGroup(s.collectGroup(o.Index))
			}
			continue
		}
		if s.groupID[seed] == s.groupEpoch {
			continue
		}
		s.resolveGroup(s.collectGroup(seed))
	}
	return s.changed
}

// collectGroup gathers the channel-connected component of seed through
// transistors that are not definitely off, stamping members with the
// current epoch so overlapping seeds resolve each group once per sweep.
// The member list is the simulator's own and is rewritten by the next call.
func (s *Sim) collectGroup(seed int) []int {
	stack := append(s.stack[:0], seed)
	s.groupID[seed] = s.groupEpoch
	group := s.group[:0]
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		group = append(group, idx)
		n := s.nw.Nodes[idx]
		if n.IsRail() || s.fixed[idx] {
			// Strong sources terminate the group: values do not need
			// to propagate *through* them, only from them.
			continue
		}
		for _, t := range n.Terms {
			if s.conducts(t) == condOff {
				continue
			}
			o := t.Other(n)
			if o == nil || s.groupID[o.Index] == s.groupEpoch {
				continue
			}
			s.groupID[o.Index] = s.groupEpoch
			stack = append(stack, o.Index)
		}
	}
	s.stack, s.group = stack, group
	return group
}

// nodeSig is the full resolution state of one node: what definitely
// drives it, plus the strongest *possible* high and low contributions
// reaching it through maybe-conducting paths. Tracking the potential
// strengths separately — and propagating them through the channel graph —
// is what makes NAND(X, X) = X while keeping NOR(1, X) = 0: a possible
// path only forces X when it is strong enough to overturn the definite
// result with the opposite value.
type nodeSig struct {
	def    sig
	potHi  Strength // strongest possible contribution of value 1 or X
	potLo  Strength // strongest possible contribution of value 0 or X
	source bool     // rails and fixed inputs: immutable during resolution
}

// value reduces the resolved state to a ternary node value.
func (ns nodeSig) value() Value {
	v := ns.def.v
	if v == V1 && ns.potLo >= ns.def.s {
		return VX
	}
	if v == V0 && ns.potHi >= ns.def.s {
		return VX
	}
	return v
}

// baseSig returns the node's intrinsic contribution: its input value at Ω
// for sources, its stored charge at the node's size otherwise.
func (s *Sim) baseSig(idx int) nodeSig {
	n := s.nw.Nodes[idx]
	st := s.size[idx]
	src := false
	if n.IsRail() || s.fixed[idx] {
		st = SOmega
		src = true
	}
	v := s.val[idx]
	ns := nodeSig{def: sig{st, v}, source: src}
	if v != V0 {
		ns.potHi = st
	}
	if v != V1 {
		ns.potLo = st
	}
	return ns
}

func minStrength(a, b Strength) Strength {
	if a < b {
		return a
	}
	return b
}

func maxStrength(a, b Strength) Strength {
	if a > b {
		return a
	}
	return b
}

// resolveGroup computes the least fixed point of the strength/value
// lattice on one channel group against the frozen sweep state, in the
// standard two passes: first driven signals (sources spreading through the
// channel graph at G-or-better strength), then stored charge joined in and
// relaxed again. Because the join is monotone the staging never changes
// the result — the least fixed point is unique — but it mirrors the
// standard presentation and lets charge sharing be read directly off the
// second pass. Proposed changes are appended to s.changed; the caller
// commits them.
func (s *Sim) resolveGroup(group []int) {
	// A fresh epoch per group: a member's entry in s.sigs is this group's,
	// anything else is a neighbour outside it.
	s.sigEpoch++
	sigs := s.sigs
	// Pass 1 — driven: only sources contribute their base signals; every
	// storage node starts empty and receives drive through the graph.
	for _, idx := range group {
		base := s.baseSig(idx)
		if !base.source {
			base = nodeSig{def: sig{SNone, VX}}
		}
		sigs[idx] = base
		s.sigID[idx] = s.sigEpoch
	}
	s.relaxGroup(group)
	// Pass 2 — charged: join each storage node's stored charge (at its
	// size) into the driven solution and relax to the full fixed point.
	for _, idx := range group {
		cur := sigs[idx]
		if cur.source {
			continue
		}
		base := s.baseSig(idx)
		cur.def = combine(cur.def, base.def)
		cur.potHi = maxStrength(cur.potHi, base.potHi)
		cur.potLo = maxStrength(cur.potLo, base.potLo)
		sigs[idx] = cur
	}
	s.relaxGroup(group)
	for _, idx := range group {
		ns := sigs[idx]
		if ns.source {
			continue
		}
		if nv := ns.value(); nv != s.val[idx] {
			s.changed = append(s.changed, change{idx, nv})
		}
	}
}

// relaxGroup runs the monotone relaxation to its fixed point: each pass
// joins every node's current state with its neighbors' contributions,
// attenuated by the connecting device's strength. Each pass propagates at
// least one transistor hop, so the group size bounds the iteration count.
func (s *Sim) relaxGroup(group []int) {
	sigs := s.sigs
	for pass := 0; pass <= len(group)+1; pass++ {
		anyChange := false
		for _, idx := range group {
			cur := sigs[idx]
			if cur.source {
				continue
			}
			acc := cur
			n := s.nw.Nodes[idx]
			for _, t := range n.Terms {
				cond := s.conducts(t)
				if cond == condOff {
					continue
				}
				o := t.Other(n)
				if o == nil {
					continue
				}
				src := sigs[o.Index]
				if s.sigID[o.Index] != s.sigEpoch {
					// Neighbor outside the group (beyond a source
					// boundary, or another component).
					src = s.baseSig(o.Index)
				}
				cap := DeviceStrength(t)
				if cond == condOn {
					acc.def = combine(acc.def, sig{minStrength(src.def.s, cap), src.def.v})
				}
				// Potential strengths flow through both on and
				// maybe-on channels.
				acc.potHi = maxStrength(acc.potHi, minStrength(src.potHi, cap))
				acc.potLo = maxStrength(acc.potLo, minStrength(src.potLo, cap))
			}
			if acc != cur {
				sigs[idx] = acc
				anyChange = true
			}
		}
		if !anyChange {
			break
		}
	}
}

// Snapshot returns a copy of all node values indexed like Network.Nodes.
func (s *Sim) Snapshot() []Value {
	out := make([]Value, len(s.val))
	copy(out, s.val)
	return out
}
