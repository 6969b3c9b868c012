// Package incremental implements the edit-journal side of Crystal's
// designer loop: change the netlist, re-verify timing, repeat — without
// throwing away the stage database or the arrival cones the edit did not
// touch.
//
// The engine is generational. Apply never mutates the network it is
// given: it clones it (O(n), far below one analysis), applies the edits
// to the clone, and reports which nodes and transistors the batch
// perturbed. Plan then widens those seeds to whole channel-connected
// groups — the unit of stage enumeration — and splits dirtiness in two:
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
// entries and its arrival times; the differential fuzz test pins the
// combined result bit-identical to a from-scratch analysis.
package incremental

import (
	"fmt"

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
	// Net is the edited clone. The network passed to Apply is untouched.
	Net *netlist.Network
	// OldTrans maps new transistor indexes to the previous generation's
	// indexes (-1 for transistors added by this batch). Node indexes are
	// stable across every edit kind, so nodes need no map.
	OldTrans []int

	seedNodes  []int // new-generation node indexes the batch touched (repeats allowed)
	seedTrans  []int // new-generation transistor indexes to force-dirty (repeats allowed)
	forceFull  bool  // a Retype was applied
	structural bool  // a device was added or removed
	oldNodes   int   // node count of the previous generation
}

// Apply clones nw, applies the edits in order, and returns the new
// generation. On error the clone is discarded and nw is (as always)
// unmodified.
func Apply(nw *netlist.Network, edits []Edit) (*Result, error) {
	res := &Result{
		Net:      nw.Clone(),
		OldTrans: make([]int, len(nw.Trans)),
		oldNodes: len(nw.Nodes),
	}
	for i := range res.OldTrans {
		res.OldTrans[i] = i
	}
	for i, e := range edits {
		if err := res.apply(e); err != nil {
			return nil, fmt.Errorf("incremental: edit %d (%s): %w", i, e.Kind, err)
		}
	}
	return res, nil
}

// seedTransistor marks a device and its terminals perturbed.
func (r *Result) seedTransistor(t *netlist.Trans) {
	r.seedTrans = append(r.seedTrans, t.Index)
	r.seedNodes = append(r.seedNodes, t.Gate.Index, t.A.Index, t.B.Index)
}

// KeepsStatic reports whether the batch left everything the switch-level
// lattice reads exactly as it is in prev, the network Apply was given: no
// device or node added or removed, no kind changed, and every node whose
// capacitance moved still in its K1/K2 size class (switchsim.SizesKept).
// A settle of the new generation under the same inputs then reproduces the
// previous generation's snapshot value for value, so the caller may keep
// that snapshot instead of settling again.
func (r *Result) KeepsStatic(prev *netlist.Network) bool {
	return !r.structural && !r.forceFull && len(r.Net.Nodes) == r.oldNodes &&
		switchsim.SizesKept(prev, r.Net, r.seedNodes)
}

func (r *Result) apply(e Edit) error {
	nw := r.Net
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
		a, b := nw.Node(e.A), nw.Node(e.B)
		var gate *netlist.Node
		if e.Dev != tech.RWire {
			gate = nw.Node(e.Gate)
		}
		if (a.Kind == netlist.KindVdd && b.Kind == netlist.KindGnd) ||
			(a.Kind == netlist.KindGnd && b.Kind == netlist.KindVdd) {
			return fmt.Errorf("device would short the supplies")
		}
		var t *netlist.Trans
		if e.Dev == tech.RWire {
			if e.R <= 0 {
				return fmt.Errorf("wire resistor needs positive resistance")
			}
			t = nw.AddResistor(a, b, e.R)
		} else {
			t = nw.AddTrans(e.Dev, gate, a, b, e.W, e.L)
		}
		r.OldTrans = append(r.OldTrans, -1)
		r.structural = true
		r.seedTransistor(t)
	case RemoveTrans:
		if e.Index < 0 || e.Index >= len(nw.Trans) {
			return fmt.Errorf("transistor index %d out of range [0,%d)", e.Index, len(nw.Trans))
		}
		t := nw.Trans[e.Index]
		r.structural = true
		r.seedTransistor(t) // the index now names whatever moves in
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
		if e.Index < 0 || e.Index >= len(nw.Trans) {
			return fmt.Errorf("transistor index %d out of range [0,%d)", e.Index, len(nw.Trans))
		}
		t := nw.Trans[e.Index]
		if t.IsWire() {
			return fmt.Errorf("cannot resize wire resistor %d", e.Index)
		}
		if e.W > 0 {
			t.W = e.W
		}
		if e.L > 0 {
			t.L = e.L
		}
		r.seedTransistor(t)
	case AddCap:
		if e.Node == "" {
			return fmt.Errorf("missing node name")
		}
		n := nw.Node(e.Node)
		n.Cap += e.Cap
		if n.Cap < 0 {
			n.Cap = 0
		}
		r.seedNodes = append(r.seedNodes, n.Index)
	case Retype:
		if e.Node == "" {
			return fmt.Errorf("missing node name")
		}
		n := nw.Lookup(e.Node)
		if n == nil {
			return fmt.Errorf("no node named %q", e.Node)
		}
		if n.IsRail() {
			return fmt.Errorf("cannot retype rail %s", n.Name)
		}
		switch e.NodeKind {
		case netlist.KindInput, netlist.KindOutput, netlist.KindNormal:
			n.Kind = e.NodeKind
		default:
			return fmt.Errorf("bad node kind %v", e.NodeKind)
		}
		r.seedNodes = append(r.seedNodes, n.Index)
		r.forceFull = true
	default:
		return fmt.Errorf("unknown edit kind %v", e.Kind)
	}
	return nil
}
