package netlist

// Compact is the compiled structure-of-arrays form of a network: the
// fields the analyzer's event loop and the stage enumerator (package
// stage, which walks the channel CSR instead of Node.Terms) read, flattened
// into dense index-keyed arrays. The pointer graph (Node/Trans structs) is
// the construction and reporting representation; the drain loop touches
// millions of events on a chip-scale run, and chasing Node→Gates→Trans
// pointers per event costs more cache misses than the arithmetic it feeds.
// A Compact is a snapshot: compile it after the network is fully built,
// and recompile after edits (generations never mutate a compiled network).
// Every per-node array is indexed by node index, so a caller's per-node
// state needs no translation and an edit's new nodes simply append.
type Compact struct {
	// GateStart/GateRef are the CSR adjacency of gate connections:
	// GateRef[GateStart[n]:GateStart[n+1]] lists the gated devices of node
	// index n, each packed as trans index << 1 | conductsOn1.
	// Always-on devices (depletion loads, wires) are omitted — they do not
	// respond to their gate, which is exactly the filter the event loop
	// wants predecoded.
	GateStart []int32
	GateRef   []int32

	// TermStart/TermRef are the CSR adjacency of channel (source/drain)
	// connections: TermRef[TermStart[n]:TermStart[n+1]] lists the devices
	// whose channel touches node n, in Node.Terms order (a device with both
	// terminals on n appears once), each packed as
	// trans index << 1 | otherIsB, where otherIsB says the far terminal is
	// the device's B node. The switch-level batch simulator walks this CSR
	// to propagate strengths, and stage enumeration to find paths.
	TermStart []int32
	TermRef   []int32

	// Per-transistor columns: channel terminal node INDEXES, the device
	// type (a tech.Device value) and the stage-extraction flow hint (a Flow
	// value), flattened so inner loops never chase Trans pointers. (A
	// device's gate is read through GateRef, from the gate's side.)
	TransA    []int32
	TransB    []int32
	TransType []uint8
	TransFlow []uint8

	// Per-node flags the drain's improve/propagate steps test.
	IsRail     []bool
	IsInput    []bool
	Precharged []bool
	// HasTerms marks nodes with at least one channel terminal (an input
	// transition rides through conducting pass devices only if some device
	// touches it).
	HasTerms []bool
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

// Compile builds the compact form of nw.
func Compile(nw *Network) *Compact {
	c := &Compact{
		GateStart:  make([]int32, len(nw.Nodes)+1),
		IsRail:     make([]bool, len(nw.Nodes)),
		IsInput:    make([]bool, len(nw.Nodes)),
		Precharged: make([]bool, len(nw.Nodes)),
		HasTerms:   make([]bool, len(nw.Nodes)),
	}
	// A device that responds to its gate sits in one gate list, and every
	// device in at most two terminal lists. The compile of an editing
	// analyzer stays resident, so the gate list is sized exactly.
	gated := 0
	for _, t := range nw.Trans {
		if !t.AlwaysOn() {
			gated++
		}
	}
	c.GateRef = make([]int32, 0, gated)
	c.TermStart = make([]int32, len(nw.Nodes)+1)
	c.TermRef = make([]int32, 0, 2*len(nw.Trans))
	for i, n := range nw.Nodes {
		c.GateStart[i] = int32(len(c.GateRef))
		for _, t := range n.Gates {
			if t.AlwaysOn() {
				continue
			}
			c.GateRef = append(c.GateRef, PackGateRef(t.Index, t.ConductsOn() == 1))
		}
		c.TermStart[i] = int32(len(c.TermRef))
		for _, t := range n.Terms {
			c.TermRef = append(c.TermRef, PackTermRef(t.Index, t.A == n))
		}
		c.IsRail[i] = n.IsRail()
		c.IsInput[i] = n.Kind == KindInput
		c.Precharged[i] = n.Precharged
		c.HasTerms[i] = len(n.Terms) > 0
	}
	c.GateStart[len(nw.Nodes)] = int32(len(c.GateRef))
	c.TermStart[len(nw.Nodes)] = int32(len(c.TermRef))
	c.TransA = make([]int32, len(nw.Trans))
	c.TransB = make([]int32, len(nw.Trans))
	c.TransType = make([]uint8, len(nw.Trans))
	c.TransFlow = make([]uint8, len(nw.Trans))
	for i, t := range nw.Trans {
		c.TransA[i] = int32(t.A.Index)
		c.TransB[i] = int32(t.B.Index)
		c.TransType[i] = uint8(t.Type)
		c.TransFlow[i] = uint8(t.Flow)
	}
	return c
}

// CompileOptions is the argument of CompileWith.
//
// Deprecated: kept only because bench/probes.go calls it; ignored.
type CompileOptions struct {
	Reorder bool
}

// CompileWith is Compile.
//
// Deprecated: kept only because bench/probes.go calls it; ignored.
func CompileWith(nw *Network, _ CompileOptions) *Compact { return Compile(nw) }

// Gates returns the packed gate refs of node index n.
func (c *Compact) Gates(n int) []int32 {
	return c.GateRef[c.GateStart[n]:c.GateStart[n+1]]
}

// Terms returns the packed channel refs of node index n.
func (c *Compact) Terms(n int) []int32 {
	return c.TermRef[c.TermStart[n]:c.TermStart[n+1]]
}
