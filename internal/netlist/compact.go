package netlist

// Compact is the compiled structure-of-arrays form of a network: the
// fields the analyzer's event loop reads per event, flattened into dense
// index-keyed arrays. The pointer graph (Node/Trans structs) is the
// construction and reporting representation; the drain loop touches
// millions of events on a chip-scale run, and chasing Node→Gates→Trans
// pointers per event costs more cache misses than the arithmetic it feeds.
// A Compact is a snapshot: compile it after the network is fully built,
// and recompile after edits (generations never mutate a compiled network).
type Compact struct {
	// GateStart/GateRef are the CSR adjacency of gate connections:
	// GateRef[GateStart[r]:GateStart[r+1]] lists the gated devices of the
	// node in ROW r, each packed as trans index << 1 | conductsOn1.
	// Always-on devices (depletion loads, wires) are omitted — they do not
	// respond to their gate, which is exactly the filter the event loop
	// wants predecoded.
	//
	// Rows are the compiled layout order: Perm maps a node index to its
	// row, InvPerm a row back to the node index. With Reorder off the
	// mapping is the identity; with it on, rows follow the reverse
	// Cuthill–McKee walk of the gate/source-drain adjacency (reorder.go),
	// so electrically adjacent nodes share cache lines in every
	// row-indexed array. Results never depend on the layout: callers keep
	// all semantic state (queue order, provenance, reported indexes) in
	// node-index space and translate through Perm only to address rows.
	GateStart []int32
	GateRef   []int32

	// TermStart/TermRef are the CSR adjacency of channel (source/drain)
	// connections: TermRef[TermStart[r]:TermStart[r+1]] lists the devices
	// whose channel touches the node in ROW r, each packed as
	// trans index << 1 | otherIsB, where otherIsB says the far terminal is
	// the device's B node. The switch-level batch simulator walks this CSR
	// to propagate strengths; like GateRef it is row-indexed, and the
	// TransGate/TransA/TransB/TransType columns it refers to are in node-
	// index space (translate through Perm to address rows).
	TermStart []int32
	TermRef   []int32

	// Per-transistor columns: gate and channel terminal node INDEXES and
	// the device type (a tech.Device value), flattened so simulators never
	// chase Trans pointers in an inner loop.
	TransGate []int32
	TransA    []int32
	TransB    []int32
	TransType []uint8

	// Per-row flags the drain's improve/propagate steps test.
	IsRail     []bool
	IsInput    []bool
	Precharged []bool
	// HasTerms marks nodes with at least one channel terminal (an input
	// transition rides through conducting pass devices only if some device
	// touches it).
	HasTerms []bool

	// Perm maps node index -> row; InvPerm maps row -> node index.
	Perm    []int32
	InvPerm []int32
	// Reordered reports whether Perm is a non-identity RCM layout.
	Reordered bool
}

// CompileOptions configures compilation.
type CompileOptions struct {
	// Reorder applies the RCM locality permutation to the row layout.
	Reorder bool
	// Prev is the compile of an earlier generation of the same network
	// (node indexes are stable across edits and nodes are never removed).
	// The new compile keeps its row layout — Perm and InvPerm of every node
	// Prev knew, whatever Reorder says — and gives the nodes created since
	// the next rows, so state a caller keeps per row stays where it is.
	Prev *Compact
}

// PackGateRef packs a gate adjacency entry.
func PackGateRef(transIndex int, conductsOn1 bool) int32 {
	r := int32(transIndex) << 1
	if conductsOn1 {
		r |= 1
	}
	return r
}

// UnpackGateRef unpacks a gate adjacency entry into the transistor index
// and its conduction polarity (true when the device conducts while its
// gate is high).
func UnpackGateRef(r int32) (transIndex int, conductsOn1 bool) {
	return int(r >> 1), r&1 == 1
}

// PackTermRef packs a channel adjacency entry.
func PackTermRef(transIndex int, otherIsB bool) int32 {
	r := int32(transIndex) << 1
	if otherIsB {
		r |= 1
	}
	return r
}

// UnpackTermRef unpacks a channel adjacency entry into the transistor
// index and whether the far terminal is the device's B node.
func UnpackTermRef(r int32) (transIndex int, otherIsB bool) {
	return int(r >> 1), r&1 == 1
}

// Compile builds the compact form of nw in construction order (identity
// layout). Use CompileWith to apply the locality reordering.
func Compile(nw *Network) *Compact {
	return CompileWith(nw, CompileOptions{})
}

// CompileWith builds the compact form of nw under the given options.
func CompileWith(nw *Network, opt CompileOptions) *Compact {
	var perm, inv []int32
	reordered := opt.Reorder
	if p := opt.Prev; p != nil {
		if len(p.Perm) > len(nw.Nodes) {
			panic("netlist: CompileOptions.Prev compiled more nodes than the network has")
		}
		perm, inv, reordered = extendOrder(p.Perm, len(nw.Nodes)), extendOrder(p.InvPerm, len(nw.Nodes)), p.Reordered
	} else {
		perm, inv = buildOrder(nw, opt.Reorder)
	}
	c := &Compact{
		GateStart:  make([]int32, len(nw.Nodes)+1),
		IsRail:     make([]bool, len(nw.Nodes)),
		IsInput:    make([]bool, len(nw.Nodes)),
		Precharged: make([]bool, len(nw.Nodes)),
		HasTerms:   make([]bool, len(nw.Nodes)),
		Perm:       perm,
		InvPerm:    inv,
		Reordered:  reordered,
	}
	// Every device sits in one gate list and at most two terminal lists.
	c.GateRef = make([]int32, 0, len(nw.Trans))
	c.TermStart = make([]int32, len(nw.Nodes)+1)
	c.TermRef = make([]int32, 0, 2*len(nw.Trans))
	for row := range nw.Nodes {
		n := nw.Nodes[inv[row]]
		c.GateStart[row] = int32(len(c.GateRef))
		for _, t := range n.Gates {
			if t.AlwaysOn() {
				continue
			}
			c.GateRef = append(c.GateRef, PackGateRef(t.Index, t.ConductsOn() == 1))
		}
		c.TermStart[row] = int32(len(c.TermRef))
		for _, t := range n.Terms {
			c.TermRef = append(c.TermRef, PackTermRef(t.Index, t.A == n))
		}
		c.IsRail[row] = n.IsRail()
		c.IsInput[row] = n.Kind == KindInput
		c.Precharged[row] = n.Precharged
		c.HasTerms[row] = len(n.Terms) > 0
	}
	c.GateStart[len(nw.Nodes)] = int32(len(c.GateRef))
	c.TermStart[len(nw.Nodes)] = int32(len(c.TermRef))
	c.TransGate = make([]int32, len(nw.Trans))
	c.TransA = make([]int32, len(nw.Trans))
	c.TransB = make([]int32, len(nw.Trans))
	c.TransType = make([]uint8, len(nw.Trans))
	for i, t := range nw.Trans {
		c.TransGate[i] = int32(t.Gate.Index)
		c.TransA[i] = int32(t.A.Index)
		c.TransB[i] = int32(t.B.Index)
		c.TransType[i] = uint8(t.Type)
	}
	return c
}

// Gates returns the packed gate refs of node index n (translating through
// the row permutation).
func (c *Compact) Gates(n int) []int32 {
	r := c.Perm[n]
	return c.GateRef[c.GateStart[r]:c.GateStart[r+1]]
}

// Terms returns the packed channel refs of node index n (translating
// through the row permutation).
func (c *Compact) Terms(n int) []int32 {
	r := c.Perm[n]
	return c.TermRef[c.TermStart[r]:c.TermStart[r+1]]
}

// Row returns the compiled row of node index n.
func (c *Compact) Row(n int) int { return int(c.Perm[n]) }
