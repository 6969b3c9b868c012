// Cloning and structural editing. The incremental re-analysis engine
// (internal/incremental) never mutates a network it was handed: an
// analyzer's first edit batch applies to a Clone, which the analyzer then
// owns, and later batches edit that clone in place, each advancing its
// Generation. The caller's network — a parsed file, crystald's shared one —
// stays immutable for every other reader. Clone therefore preserves
// everything enumeration order depends on — node and transistor indexes,
// and the insertion order of every adjacency list — so a clone analyzes
// bit-identically to its original.
package netlist

// Clone returns a deep copy of the network: same node and transistor
// indexes, same adjacency-list order, independent storage. The technology
// parameters are shared (they are immutable by convention), and so is the
// name index, if nw has built one, until either side creates a node.
//
// The copy is three allocations, not one per object: every node lives in
// one slab, every transistor in a second, and every Gates/Terms list is
// carved out of a third with its capacity clipped to its length, so an
// AddTrans on the clone reallocates the list it appends to instead of
// writing into the neighbouring one. The price is that one retained *Node
// or *Trans keeps its generation's whole slab alive.
func (nw *Network) Clone() *Network {
	c := &Network{
		Name:  nw.Name,
		Tech:  nw.Tech,
		Nodes: make([]*Node, len(nw.Nodes)),
		Trans: make([]*Trans, len(nw.Trans)),
	}
	// An index that exists is shared and, from here on, nobody's to add to.
	// One that was never asked for stays unbuilt on both sides: a decoded
	// network serving many sessions does not grow a map because one of them
	// edits.
	if idx := nw.names.Load(); idx != nil {
		if idx.owner != nil {
			idx = &nameIndex{m: idx.m}
			nw.names.Store(idx)
		}
		c.names.Store(idx)
	}
	if len(nw.Instances) > 0 {
		c.Instances = make([]Instance, len(nw.Instances))
		copy(c.Instances, nw.Instances)
	}
	trans := make([]Trans, len(nw.Trans))
	for i, t := range nw.Trans {
		trans[i] = *t
		c.Trans[i] = &trans[i]
	}
	refs := 0
	for _, n := range nw.Nodes {
		refs += len(n.Gates) + len(n.Terms)
	}
	nodes := make([]Node, len(nw.Nodes))
	lists := make([]*Trans, refs)
	// Adjacency lists are copied element-for-element from the originals,
	// not re-derived, so any insertion order (including the post-removal
	// order left by RemoveTrans) survives the copy exactly.
	carve := func(src []*Trans) []*Trans {
		if len(src) == 0 {
			return nil
		}
		dst := lists[:len(src):len(src)]
		lists = lists[len(src):]
		for j, t := range src {
			dst[j] = c.Trans[t.Index]
		}
		return dst
	}
	for i, n := range nw.Nodes {
		nodes[i] = *n
		nodes[i].Gates, nodes[i].Terms = carve(n.Gates), carve(n.Terms)
		c.Nodes[i] = &nodes[i]
	}
	for i := range trans {
		t := &trans[i]
		t.Gate, t.A, t.B = c.Nodes[t.Gate.Index], c.Nodes[t.A.Index], c.Nodes[t.B.Index]
	}
	c.vdd = c.Nodes[nw.vdd.Index]
	c.gnd = c.Nodes[nw.gnd.Index]
	return c
}

// RemoveTrans deletes transistor t from the network. The last transistor
// is swapped into the hole to keep indexes dense, so exactly one surviving
// transistor (the returned one, nil if t was last) changes index. Nodes
// are never removed — a node left floating keeps loading nothing.
// Adjacency lists keep their relative order.
func (nw *Network) RemoveTrans(t *Trans) *Trans {
	if nw.Trans[t.Index] != t {
		panic("netlist: RemoveTrans of foreign transistor")
	}
	removeFrom(&t.Gate.Gates, t)
	removeFrom(&t.A.Terms, t)
	if t.B != t.A {
		removeFrom(&t.B.Terms, t)
	}
	last := len(nw.Trans) - 1
	var moved *Trans
	if t.Index != last {
		moved = nw.Trans[last]
		moved.Index = t.Index
		nw.Trans[t.Index] = moved
	}
	nw.Trans[last] = nil
	nw.Trans = nw.Trans[:last]
	t.Index = -1
	return moved
}

// removeFrom deletes the first occurrence of t, preserving order.
func removeFrom(list *[]*Trans, t *Trans) {
	s := *list
	for i, x := range s {
		if x == t {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			*list = s[:len(s)-1]
			return
		}
	}
}
