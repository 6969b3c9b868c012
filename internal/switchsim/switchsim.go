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
// One kernel (kernel.go) solves the lattice, in bit-plane form over a word
// of lanes, behind two fronts: Sim holds one circuit state with incremental
// settles, stored-state writes and Resume — what the timing verifier's
// sensitization and esim scripts drive — and Batch streams 64 input vectors
// at a time through it. The test suite uses both to verify the functional
// correctness of every generated circuit — an ALU that doesn't add is not
// worth timing — and pins the kernel to an independent scalar resolver kept
// in reference_test.go.
package switchsim

import (
	"fmt"
	"slices"

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

// Sim is a simulator of one circuit state bound to one network: set inputs,
// call Settle, read values. It runs the kernel (kernel.go) on 8-lane words
// with its one state copied into every lane, so "driven in every lane", the
// kernel's region bound, is exactly the set of rails and driven inputs.
type Sim struct {
	k       kernel[uint8]
	settled int    // Settle calls; 1 after a Resume
	dirty   []int  // nodes set from outside since the last Settle
	isDirty []bool // membership of dirty
}

// New compiles nw and creates a simulator with rails at their fixed values
// and every other node at X.
func New(nw *netlist.Network) *Sim { return NewCompiled(nw, netlist.Compile(nw)) }

// NewCompiled is New over c, a compile of nw's current generation, for
// callers that already hold one.
func NewCompiled(nw *netlist.Network, c *netlist.Compact) *Sim {
	return &Sim{k: newKernel[uint8](nw, c), isDirty: make([]bool, len(nw.Nodes))}
}

// planes returns value v's value planes, in every lane.
func planes(v Value) (p0, p1 uint8) {
	if v != V1 {
		p0 = ^uint8(0)
	}
	if v != V0 {
		p1 = ^uint8(0)
	}
	return p0, p1
}

// SetInput drives node n to value v as an Ω source. Rails cannot be
// overridden. Passing VX releases the node back to undriven unknown.
func (s *Sim) SetInput(n *netlist.Node, v Value) error {
	if n.IsRail() {
		return fmt.Errorf("switchsim: cannot drive rail %s", n.Name)
	}
	i := n.Index
	s.k.driven[i], s.k.dval[i] = 0, 0
	if v != VX {
		s.k.driven[i] = ^uint8(0)
	}
	if v == V1 {
		s.k.dval[i] = ^uint8(0)
	}
	s.k.p0[i], s.k.p1[i] = planes(v)
	s.markDirty(i)
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
	if s.k.driven[n.Index] != 0 {
		return fmt.Errorf("switchsim: %s is driven; release it before SetValue", n.Name)
	}
	s.k.p0[n.Index], s.k.p1[n.Index] = planes(v)
	s.markDirty(n.Index)
	return nil
}

// Node returns the node named name.
func (s *Sim) Node(name string) (*netlist.Node, error) {
	if n := s.k.nw.Lookup(name); n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("switchsim: no node named %q", name)
}

// SetInputName is SetInput by node name.
func (s *Sim) SetInputName(name string, v Value) error {
	n, err := s.Node(name)
	if err != nil {
		return err
	}
	return s.SetInput(n, v)
}

// Value returns the current value of node n.
func (s *Sim) Value(n *netlist.Node) Value { return s.k.value(n.Index, 1) }

// ValueName returns the value of the named node, which must exist.
func (s *Sim) ValueName(name string) Value { return s.Value(s.k.nw.Lookup(name)) }

// Resume loads a settled state in place of the power-on one, so that the
// next Settle re-evaluates only what an edit can have changed. prev holds
// the values a Settle of the network's previous edit generation left, with
// the same fixed sources (set them with SetInput first) and the same nodes;
// seeds are the nodes whose lattice inputs the edit changed — the gate and
// terminals of every device it added or removed, and every node whose size
// it moved. Resume releases to X the forward lattice cone of the seeds: the
// closure over channel neighbours, through any device whatever its
// conduction, and over the terminals of every device a cone node gates
// (always-on devices do not read their gate), stopping only at rails and
// fixed nodes, where a settle's regions stop. Every other node takes its
// value from prev, and the cone is marked dirty; whatever was queued before
// (the SetInput calls fixing the sources) is dropped, since prev already
// settled it. It returns the cone (a fresh slice, in visit order).
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
	k, c := &s.k, s.k.c
	for _, i := range s.dirty {
		s.isDirty[i] = false
	}
	s.dirty = s.dirty[:0]
	visit := func(i int32) {
		if k.driven[i] == 0 {
			s.markDirty(int(i))
		}
	}
	for _, i := range seeds {
		visit(int32(i))
	}
	for qi := 0; qi < len(s.dirty); qi++ {
		n := s.dirty[qi]
		for _, ref := range c.Terms(n) {
			t, _ := netlist.UnpackTermRef(ref)
			visit(c.TransA[t])
			visit(c.TransB[t])
		}
		for _, ref := range c.Gates(n) {
			t, _ := netlist.UnpackGateRef(ref)
			visit(c.TransA[t])
			visit(c.TransB[t])
		}
	}
	for i, v := range prev {
		if k.driven[i] == 0 {
			k.p0[i], k.p1[i] = planes(v)
		}
	}
	for _, i := range s.dirty {
		k.p0[i], k.p1[i] = planes(VX)
	}
	k.rebase()
	// The loaded state stands in for the first Settle's: the next one is
	// incremental from the cone.
	s.settled = max(s.settled, 1)
	return slices.Clone(s.dirty)
}

// Oscillated reports whether the last Settle forced any node to X because
// it failed to stabilize (combinational feedback).
func (s *Sim) Oscillated() bool {
	for _, o := range s.k.oscm {
		if o != 0 {
			return true
		}
	}
	return false
}

func (s *Sim) markDirty(i int) {
	if !s.isDirty[i] {
		s.isDirty[i] = true
		s.dirty = append(s.dirty, i)
	}
}

// Settle iterates until all node values are stable, or until the
// iteration bound is reached, in which case still-changing nodes are
// forced to X and marked as oscillating. It returns the number of sweeps
// performed. The first call evaluates everything; later calls are
// incremental from the nodes set since the last one.
//
// Each sweep is synchronous (Jacobi): conduction states and stored values
// are frozen at the start of the sweep, every affected channel group is
// resolved to its lattice fixed point against that frozen state, and all
// new values commit together at the end of the sweep.
func (s *Sim) Settle() int {
	k := &s.k
	s.settled++
	if s.settled == 1 {
		// Everything, including subnetworks not reachable from any input
		// (tied pullups, constant stages).
		k.seedAll()
	} else {
		// A node set from outside re-resolves its group and, with their
		// conduction re-decoded, the groups of the devices it gates. A
		// source bounds the groups around it, so its base planes are
		// reset and its channel neighbours' groups re-resolve instead.
		k.seeds = k.seeds[:0]
		for _, n := range s.dirty {
			if k.driven[n] != 0 {
				k.resetPlanes(n)
				for _, ref := range k.c.Terms(n) {
					t, _ := netlist.UnpackTermRef(ref)
					k.seeds = append(k.seeds, k.c.TransA[t], k.c.TransB[t])
				}
			}
			k.decodeGated(n)
			k.seedGated(n)
		}
	}
	for _, n := range s.dirty {
		s.isDirty[n] = false
	}
	s.dirty = s.dirty[:0]
	return k.settle()
}

// Snapshot returns a copy of all node values indexed like Network.Nodes.
func (s *Sim) Snapshot() []Value {
	out := make([]Value, len(s.k.p0))
	for n := range out {
		out[n] = s.k.value(n, 1)
	}
	return out
}
