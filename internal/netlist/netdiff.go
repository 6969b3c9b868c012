// Structural network comparison. The snapshot loader, Clone and the
// incremental engine all promise the *same* network the parser builds —
// not an equivalent one. DiffNetworks is that
// promise made checkable: an exhaustive field-by-field comparison,
// including index assignment and adjacency order, with exact float
// equality (1 ulp of drift in a capacitance would already mean a code
// path multiplied in a different order).
package netlist

import "fmt"

// DiffNetworks reports the first structural difference between two
// networks, or nil if they are identical: same node order and indexes,
// same transistor order, same adjacency order, same capacitances,
// geometry, kinds and flags, bit for bit.
func DiffNetworks(a, b *Network) error {
	if a.Name != b.Name {
		return fmt.Errorf("name: %q vs %q", a.Name, b.Name)
	}
	if a.Tech.Name != b.Tech.Name {
		return fmt.Errorf("tech: %q vs %q", a.Tech.Name, b.Tech.Name)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("node count: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	if len(a.Trans) != len(b.Trans) {
		return fmt.Errorf("transistor count: %d vs %d", len(a.Trans), len(b.Trans))
	}
	for i, an := range a.Nodes {
		bn := b.Nodes[i]
		if an.Index != bn.Index || an.Name != bn.Name {
			return fmt.Errorf("node %d: %d/%q vs %d/%q", i, an.Index, an.Name, bn.Index, bn.Name)
		}
		if an.Kind != bn.Kind {
			return fmt.Errorf("node %q: kind %v vs %v", an.Name, an.Kind, bn.Kind)
		}
		if an.Cap != bn.Cap {
			return fmt.Errorf("node %q: cap %v vs %v", an.Name, an.Cap, bn.Cap)
		}
		if an.Precharged != bn.Precharged {
			return fmt.Errorf("node %q: precharged %v vs %v", an.Name, an.Precharged, bn.Precharged)
		}
		if len(an.Gates) != len(bn.Gates) {
			return fmt.Errorf("node %q: gate fanout %d vs %d", an.Name, len(an.Gates), len(bn.Gates))
		}
		for j := range an.Gates {
			if an.Gates[j].Index != bn.Gates[j].Index {
				return fmt.Errorf("node %q: gates[%d] = trans %d vs %d", an.Name, j, an.Gates[j].Index, bn.Gates[j].Index)
			}
		}
		if len(an.Terms) != len(bn.Terms) {
			return fmt.Errorf("node %q: terminal fanout %d vs %d", an.Name, len(an.Terms), len(bn.Terms))
		}
		for j := range an.Terms {
			if an.Terms[j].Index != bn.Terms[j].Index {
				return fmt.Errorf("node %q: terms[%d] = trans %d vs %d", an.Name, j, an.Terms[j].Index, bn.Terms[j].Index)
			}
		}
	}
	for i, at := range a.Trans {
		bt := b.Trans[i]
		if at.Index != bt.Index {
			return fmt.Errorf("trans %d: index %d vs %d", i, at.Index, bt.Index)
		}
		if at.Type != bt.Type {
			return fmt.Errorf("trans %d: type %v vs %v", i, at.Type, bt.Type)
		}
		if at.Gate.Index != bt.Gate.Index {
			return fmt.Errorf("trans %d: gate %q vs %q", i, at.Gate.Name, bt.Gate.Name)
		}
		if at.A.Index != bt.A.Index || at.B.Index != bt.B.Index {
			return fmt.Errorf("trans %d: terminals %q/%q vs %q/%q", i, at.A.Name, at.B.Name, bt.A.Name, bt.B.Name)
		}
		if at.W != bt.W || at.L != bt.L {
			return fmt.Errorf("trans %d: geometry %v x %v vs %v x %v", i, at.W, at.L, bt.W, bt.L)
		}
		if at.Flow != bt.Flow {
			return fmt.Errorf("trans %d: flow %v vs %v", i, at.Flow, bt.Flow)
		}
		if at.ROverride != bt.ROverride {
			return fmt.Errorf("trans %d: r override %v vs %v", i, at.ROverride, bt.ROverride)
		}
	}
	if len(a.Instances) != len(b.Instances) {
		return fmt.Errorf("instance count: %d vs %d", len(a.Instances), len(b.Instances))
	}
	for i, ai := range a.Instances {
		bi := b.Instances[i]
		if ai != bi {
			return fmt.Errorf("instance %d: %q [%d,%d) vs %q [%d,%d)",
				i, ai.Path, ai.TransLo, ai.TransHi, bi.Path, bi.TransLo, bi.TransHi)
		}
	}
	return nil
}
