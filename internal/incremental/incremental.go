// Package incremental implements the edit-journal side of Crystal's
// designer loop: change the netlist, re-verify timing, repeat — without
// throwing away the stage database or the arrival cones the edit did not
// touch.
//
// The engine is generational. Apply never mutates the network it is
// given: it clones it (O(n), far below one analysis), applies the edits
// to the clone, and reports which nodes and transistors the batch
// perturbed. ApplyInPlace does the same to a network its caller owns
// outright, without the clone, and advances the network's generation;
// both validate the whole batch before the first edit, so a batch either
// applies completely or not at all. Plan then widens those seeds to whole
// channel-connected groups — the unit of stage enumeration — and splits
// dirtiness in two:
//
//   - db-dirty groups, whose stage enumerations (and therefore stage.DB
//     entries) are stale: groups with a structural or geometric edit, and
//     groups containing a transistor whose gate's settled static value
//     changed (sensitization feeds enumeration);
//   - time-dirty groups, the downstream closure of the db-dirty set over
//     gate-fanout edges: their enumerations are intact but their arrival
//     times may have moved in either direction, so the analyzer must
//     reset and re-propagate them.
//
// Everything outside the time-dirty closure keeps both its stage.DB
// entries and its arrival times: the plan lists the stale entries, and an
// editing analyzer resets just those in its database, in place
// (stage.DB.Advance). The differential fuzz test pins the combined result
// bit-identical to a from-scratch analysis.
package incremental

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// Kind enumerates journal operations.
type Kind int

const (
	// AddTrans inserts a transistor (creating named nodes as needed).
	AddTrans Kind = iota
	// RemoveTrans deletes the transistor at Index (current indexing).
	RemoveTrans
	// Resize changes the W/L of the transistor at Index.
	Resize
	// AddCap adds capacitance to the named node (creating it if absent).
	AddCap
	// Retype changes the named node's kind (input/output/normal). A
	// retype changes which nodes count as strong sources, which reshapes
	// every channel group it borders — Plan forces a full re-analysis.
	Retype
)

// String names the edit kind.
func (k Kind) String() string {
	switch k {
	case AddTrans:
		return "add"
	case RemoveTrans:
		return "del"
	case Resize:
		return "resize"
	case AddCap:
		return "cap"
	case Retype:
		return "retype"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Edit is one journal entry. Node references are by name (stable across
// generations); transistor references are by index under the journal's
// current indexing — i.e. indexes observed after the preceding edits in
// the same batch, matching what RemoveTrans compaction leaves behind.
type Edit struct {
	Kind Kind

	// AddTrans fields.
	Dev        tech.Device
	Gate, A, B string
	// W, L: geometry in meters for AddTrans and Resize; non-positive
	// values select the technology minima (AddTrans) or keep the current
	// value (Resize).
	W, L float64
	// R is the wire resistance in ohms when Dev == tech.RWire.
	R float64

	// Index targets RemoveTrans and Resize.
	Index int

	// Node names the target of AddCap and Retype.
	Node string
	// Cap is the capacitance to add in farads (AddCap). Negative values
	// subtract, clamped at zero total explicit capacitance.
	Cap float64
	// NodeKind is the new kind for Retype (input, output or normal).
	NodeKind netlist.NodeKind
}

// Result is one applied edit batch: the next network generation plus the
// bookkeeping Plan needs to compute invalidation.
type Result struct {
	// Net is the edited network: a clone for Apply, the network itself for
	// ApplyInPlace.
	Net *netlist.Network
	// OldTrans maps new transistor indexes to the previous generation's
	// indexes (-1 for transistors added by this batch). It is nil when the
	// batch added and removed no device: every index then maps to itself.
	// Otherwise each entry is its own index, -1, or the old index of a
	// device a removal moved down from the end into a hole, which is
	// always greater than the entry's own index. Node indexes are stable
	// across every edit kind, so nodes need no map.
	OldTrans []int

	seedNodes []int // new-generation node indexes the batch touched (repeats allowed)
	seedTrans []int // new-generation transistor indexes to force-dirty (repeats allowed)
	forceFull bool  // a Retype was applied
	oldNodes  int   // node count of the previous generation

	lattice []int                      // LatticeSeeds (repeats allowed)
	sizes   map[int]switchsim.Strength // size of each node a geometry edit touched, before the first one
}

// Apply clones nw, applies the edits to the clone in order, and returns the
// new generation; nw is never modified. The batch is validated against the
// clone, before its first edit: name lookups build a lazily decoded
// network's name index, and a shared read-only view (crystald's arena) must
// not grow one because one session edits.
func Apply(nw *netlist.Network, edits []Edit) (*Result, error) {
	c := nw.Clone()
	if err := validate(c, edits); err != nil {
		return nil, err
	}
	return commit(c, edits), nil
}

// ApplyInPlace applies the edits to nw itself and advances its generation
// (netlist.Network.NextGeneration). It is for a network nobody else reads —
// the clone an analyzer's first Apply made, say. The whole batch is
// validated before the first edit, so on error nw is unmodified.
func ApplyInPlace(nw *netlist.Network, edits []Edit) (*Result, error) {
	if err := validate(nw, edits); err != nil {
		return nil, err
	}
	res := commit(nw, edits)
	nw.NextGeneration()
	return res, nil
}

// LatticeSeeds lists, by node index, where the batch changed what the
// switch-level lattice reads: the gate and terminals of every device it
// added or removed, and every node whose size (switchsim.SizeOf) the batch
// moved. Retypes and created nodes are the caller's to check (Retyped, the
// node count): the static settle redoes those from power-on. Empty means
// the previous generation's settled values stand; otherwise the forward
// lattice cone of these nodes is what can change (switchsim.Sim.Resume).
func (r *Result) LatticeSeeds() []int { return r.lattice }

// Retyped reports that the batch changed a node's kind.
func (r *Result) Retyped() bool { return r.forceFull }

// Rewired reports that the batch added or removed a device.
func (r *Result) Rewired() bool { return r.OldTrans != nil }

// Touched lists, by node index, the nodes the batch edited: the node of
// every capacitance edit and retype, and the gate and terminals of every
// device it added, removed, resized or moved to a new index (repeats
// allowed). A node's loading (Network.NodeCap) changes only if it is here.
func (r *Result) Touched() []int { return r.seedNodes }

// rewire gives the batch its transistor map on its first added or removed
// device: the identity over the previous generation's devices.
func (r *Result) rewire() {
	if r.OldTrans == nil {
		r.OldTrans = make([]int, len(r.Net.Trans))
		for i := range r.OldTrans {
			r.OldTrans[i] = i
		}
	}
}

// seedTransistor marks a device and its terminals perturbed.
func (r *Result) seedTransistor(t *netlist.Trans) {
	r.seedTrans = append(r.seedTrans, t.Index)
	r.seedNodes = append(r.seedNodes, t.Gate.Index, t.A.Index, t.B.Index)
}

// seedLattice makes a device added or removed a lattice seed.
func (r *Result) seedLattice(t *netlist.Trans) {
	r.lattice = append(r.lattice, t.Gate.Index, t.A.Index, t.B.Index)
}

// recordSize notes n's size before the batch first changes its load.
func (r *Result) recordSize(n *netlist.Node) {
	if r.sizes == nil {
		r.sizes = make(map[int]switchsim.Strength)
	}
	if _, ok := r.sizes[n.Index]; !ok {
		r.sizes[n.Index] = switchsim.SizeOf(r.Net, n)
	}
}

// validate checks the whole batch against nw without changing it: each
// edit is checked as commit would meet it, after the edits before it. It
// tracks only what the checks read — the node names the batch creates, the
// transistor count, and whether the device at an index an earlier edit
// refilled is a wire (a removal moves the last device into the hole).
func validate(nw *netlist.Network, edits []Edit) error {
	v := validator{nw: nw, nt: len(nw.Trans)}
	for i, e := range edits {
		if err := v.check(e); err != nil {
			return fmt.Errorf("incremental: edit %d (%s): %w", i, e.Kind, err)
		}
	}
	return nil
}

type validator struct {
	nw      *netlist.Network
	nt      int
	created map[string]bool
	wire    map[int]bool
}

// node is Network.Node without the side effect: it records a name the batch
// creates and returns the node's kind. Rails keep theirs and nothing else
// becomes one, so the kind it returns for a rail is final.
func (v *validator) node(name string) netlist.NodeKind {
	name = netlist.Canonical(name)
	if n := v.nw.Lookup(name); n != nil {
		return n.Kind
	}
	if v.created == nil {
		v.created = make(map[string]bool)
	}
	v.created[name] = true
	return netlist.KindNormal
}

// isWire reports whether the device at index i, after the edits checked so
// far, is a wire resistor.
func (v *validator) isWire(i int) bool {
	if w, ok := v.wire[i]; ok {
		return w
	}
	return v.nw.Trans[i].IsWire()
}

// setWire records the device now at index i.
func (v *validator) setWire(i int, w bool) {
	if v.wire == nil {
		v.wire = make(map[int]bool)
	}
	v.wire[i] = w
}

func (v *validator) check(e Edit) error {
	nw := v.nw
	switch e.Kind {
	case AddTrans:
		if e.A == "" || e.B == "" {
			return fmt.Errorf("missing terminal name")
		}
		if e.Gate == "" && e.Dev != tech.RWire {
			return fmt.Errorf("missing gate name")
		}
		if e.Dev == tech.PEnh && !nw.Tech.HasPChannel() {
			return fmt.Errorf("p-channel device in technology %s", nw.Tech.Name)
		}
		a, b := v.node(e.A), v.node(e.B)
		if e.Dev != tech.RWire {
			v.node(e.Gate)
		}
		if (a == netlist.KindVdd && b == netlist.KindGnd) || (a == netlist.KindGnd && b == netlist.KindVdd) {
			return fmt.Errorf("device would short the supplies")
		}
		if e.Dev == tech.RWire && e.R <= 0 {
			return fmt.Errorf("wire resistor needs positive resistance")
		}
		v.setWire(v.nt, e.Dev == tech.RWire)
		v.nt++
	case RemoveTrans:
		if e.Index < 0 || e.Index >= v.nt {
			return fmt.Errorf("transistor index %d out of range [0,%d)", e.Index, v.nt)
		}
		v.nt--
		v.setWire(e.Index, v.isWire(v.nt))
		delete(v.wire, v.nt)
	case Resize:
		if e.Index < 0 || e.Index >= v.nt {
			return fmt.Errorf("transistor index %d out of range [0,%d)", e.Index, v.nt)
		}
		if v.isWire(e.Index) {
			return fmt.Errorf("cannot resize wire resistor %d", e.Index)
		}
	case AddCap:
		if e.Node == "" {
			return fmt.Errorf("missing node name")
		}
		v.node(e.Node)
	case Retype:
		if e.Node == "" {
			return fmt.Errorf("missing node name")
		}
		n := nw.Lookup(e.Node)
		if n == nil && !v.created[e.Node] {
			return fmt.Errorf("no node named %q", e.Node)
		}
		if n != nil && n.IsRail() {
			return fmt.Errorf("cannot retype rail %s", n.Name)
		}
		switch e.NodeKind {
		case netlist.KindInput, netlist.KindOutput, netlist.KindNormal:
		default:
			return fmt.Errorf("bad node kind %v", e.NodeKind)
		}
	default:
		return fmt.Errorf("unknown edit kind %v", e.Kind)
	}
	return nil
}

// commit applies a validated batch to nw. It cannot fail.
func commit(nw *netlist.Network, edits []Edit) *Result {
	r := &Result{Net: nw, oldNodes: len(nw.Nodes)}
	for _, e := range edits {
		r.apply(e)
	}
	for i, was := range r.sizes {
		if switchsim.SizeOf(nw, nw.Nodes[i]) != was {
			r.lattice = append(r.lattice, i)
		}
	}
	slices.Sort(r.lattice) // map order is random; the cone walk's need not be
	r.sizes = nil
	return r
}

// apply performs one validated edit.
func (r *Result) apply(e Edit) {
	nw := r.Net
	switch e.Kind {
	case AddTrans:
		r.rewire()
		a, b := nw.Node(e.A), nw.Node(e.B)
		var t *netlist.Trans
		if e.Dev == tech.RWire {
			t = nw.AddResistor(a, b, e.R)
		} else {
			t = nw.AddTrans(e.Dev, nw.Node(e.Gate), a, b, e.W, e.L)
		}
		r.OldTrans = append(r.OldTrans, -1)
		r.seedTransistor(t)
		r.seedLattice(t)
	case RemoveTrans:
		r.rewire()
		t := nw.Trans[e.Index]
		r.seedTransistor(t) // the index now names whatever moves in
		r.seedLattice(t)
		moved := nw.RemoveTrans(t)
		last := len(nw.Trans) // index the moved device vacated
		if moved != nil {
			// The swapped-in device changes index: its memoized stages
			// carry the old index, so it and its groups must re-enumerate.
			r.OldTrans[e.Index] = r.OldTrans[last]
			r.seedTransistor(moved)
		}
		r.OldTrans = r.OldTrans[:last]
	case Resize:
		t := nw.Trans[e.Index]
		// Gate capacitance reads W·L, diffusion W.
		r.recordSize(t.Gate)
		r.recordSize(t.A)
		r.recordSize(t.B)
		if e.W > 0 {
			t.W = e.W
		}
		if e.L > 0 {
			t.L = e.L
		}
		r.seedTransistor(t)
	case AddCap:
		n := nw.Node(e.Node)
		r.recordSize(n)
		n.Cap += e.Cap
		if n.Cap < 0 {
			n.Cap = 0
		}
		r.seedNodes = append(r.seedNodes, n.Index)
	case Retype:
		n := nw.Lookup(e.Node)
		n.Kind = e.NodeKind
		r.seedNodes = append(r.seedNodes, n.Index)
		r.forceFull = true
	}
}
