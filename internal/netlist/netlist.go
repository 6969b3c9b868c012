// Package netlist represents digital MOS circuits at the switch level: a
// bipartite graph of nodes (electrical nets carrying capacitance) and
// transistors (switches with a gate terminal and two interchangeable
// channel terminals). This is the representation the timing verifier, the
// switch-level simulator, and the stage extractor all operate on.
//
// Networks can be built programmatically (package gen does so), read from
// Berkeley .sim files (ReadSim), or written back out (WriteSim).
package netlist

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/tech"
)

// Flow restricts the direction in which signals may propagate through a
// transistor's channel during stage extraction. Extracted layouts do not
// distinguish source from drain, so by default information may flow both
// ways; user hints (Crystal's "flow" attributes) break pathological cases
// such as barrel shifters, where unrestricted flow invents impossible paths.
type Flow uint8

const (
	// FlowBoth permits propagation in either direction (default).
	FlowBoth Flow = iota
	// FlowAB permits propagation only from terminal A to terminal B.
	FlowAB
	// FlowBA permits propagation only from terminal B to terminal A.
	FlowBA
	// FlowOff forbids the stage extractor from passing through the
	// channel entirely (the device still loads its terminals).
	FlowOff
)

// String returns a mnemonic for the flow restriction.
func (f Flow) String() string {
	switch f {
	case FlowBoth:
		return "both"
	case FlowAB:
		return "a>b"
	case FlowBA:
		return "b>a"
	case FlowOff:
		return "off"
	}
	return fmt.Sprintf("Flow(%d)", int(f))
}

// NodeKind classifies special nodes.
type NodeKind uint8

const (
	// KindNormal is an ordinary internal node.
	KindNormal NodeKind = iota
	// KindVdd is the positive supply rail.
	KindVdd
	// KindGnd is the ground rail.
	KindGnd
	// KindInput is a chip input: a strong source with externally
	// specified timing.
	KindInput
	// KindOutput is a watched output (affects reporting only).
	KindOutput
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindVdd:
		return "vdd"
	case KindGnd:
		return "gnd"
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is one electrical net.
type Node struct {
	// Index is the node's position in Network.Nodes; stable for the
	// lifetime of the network and usable as a dense array key.
	Index int
	// Name is the net name. Unique within a network.
	Name string
	// Cap is explicit capacitance to ground in farads (wiring plus any
	// .sim-file capacitors). Device capacitances are added on top by
	// Network.NodeCap.
	Cap float64
	// Gates lists transistors whose gate terminal is this node.
	Gates []*Trans
	// Terms lists transistors with a channel terminal (A or B) here.
	Terms []*Trans
	// The byte-wide fields come last and share one word (88-byte record).

	// Kind classifies rails, inputs and outputs.
	Kind NodeKind
	// Precharged marks nodes initialized high by a precharge clock;
	// the timing verifier seeds their initial value accordingly.
	Precharged bool
}

// IsRail reports whether the node is Vdd or GND.
func (n *Node) IsRail() bool { return n.Kind == KindVdd || n.Kind == KindGnd }

// IsSource reports whether the node is a strong signal source from the
// point of view of stage extraction: a rail or a chip input.
func (n *Node) IsSource() bool { return n.IsRail() || n.Kind == KindInput }

// String returns the node name.
func (n *Node) String() string { return n.Name }

// Degree returns the number of transistor terminals attached to the node
// (gates plus channel terminals).
func (n *Node) Degree() int { return len(n.Gates) + len(n.Terms) }

// Trans is one transistor.
type Trans struct {
	// Index is the transistor's position in Network.Trans.
	Index int
	// Gate is the controlling node.
	Gate *Node
	// A and B are the channel terminals. The switch-level view does not
	// distinguish source from drain; Flow optionally restricts direction.
	A, B *Node
	// W, L are channel width and length in meters.
	W, L float64
	// ROverride, when positive, replaces the technology-table resistance
	// for this element — used by RWire interconnect resistors, whose
	// resistance is a property of the wire, not the process tables.
	ROverride float64
	// The byte-wide fields come last and share one word (64-byte record).

	// Type is the device type (n-enhancement, n-depletion, p-enhancement).
	Type tech.Device
	// Flow restricts stage-extraction direction through the channel.
	Flow Flow
}

// Other returns the channel terminal opposite n, or nil if n is not a
// channel terminal of the transistor.
func (t *Trans) Other(n *Node) *Node {
	switch n {
	case t.A:
		return t.B
	case t.B:
		return t.A
	}
	return nil
}

// ConductsOn returns the gate value (0 or 1) at which the device conducts.
// Depletion devices conduct regardless; for them the returned value is 1
// and callers should consult AlwaysOn.
func (t *Trans) ConductsOn() int {
	if t.Type == tech.PEnh {
		return 0
	}
	return 1
}

// AlwaysOn reports whether the device conducts regardless of gate voltage
// (depletion-mode devices with their large negative threshold, and wire
// resistors).
func (t *Trans) AlwaysOn() bool { return t.Type == tech.NDep || t.Type == tech.RWire }

// IsWire reports whether the element is an interconnect resistor.
func (t *Trans) IsWire() bool { return t.Type == tech.RWire }

// CanFlow reports whether stage extraction may move from channel terminal
// `from` to the opposite terminal.
func (t *Trans) CanFlow(from *Node) bool {
	switch t.Flow {
	case FlowBoth:
		return true
	case FlowAB:
		return from == t.A
	case FlowBA:
		return from == t.B
	}
	return false
}

// String renders the transistor compactly for diagnostics.
func (t *Trans) String() string {
	return fmt.Sprintf("%s(g=%s a=%s b=%s w=%.2g l=%.2g)",
		t.Type, t.Gate.Name, t.A.Name, t.B.Name, t.W, t.L)
}

// Instance records that the transistors [TransLo, TransHi) were stamped
// as one hierarchical block. Composition (Import) appends these
// automatically; .sim files carry them as "@ inst" directives and .simx v2
// snapshots as an optional section. They are annotations only — nothing in
// the electrical model reads them — but the hierarchical analyzer
// (internal/hier) uses them as candidate regions for macromodel reuse.
type Instance struct {
	// Path is the hierarchical name, e.g. "t3_" or "t3_dp_". Non-empty.
	Path string
	// TransLo and TransHi bound the instance's transistors, half-open in
	// index space: every device the stamp created, contiguous by
	// construction (Import appends).
	TransLo, TransHi int
}

// Network is a switch-level circuit: nodes, transistors, and the
// technology they are drawn in.
type Network struct {
	// Name labels the network in reports.
	Name string
	// Tech supplies device constants. Never nil.
	Tech *tech.Params
	// Nodes and Trans own the graph. Indexes are dense.
	Nodes []*Node
	Trans []*Trans

	// Instances lists hierarchical stamp annotations, children before
	// their enclosing parent (the order Import records them in). May be
	// empty; ranges may nest but never partially overlap when produced by
	// Import.
	Instances []Instance

	// names is the name index. Construction paths build it eagerly; the
	// .simx decoder leaves it nil and nameOnce materializes it on the first
	// Lookup/Node call — analysis touches nodes by index only, so a snapshot
	// load never pays the map build (and concurrent sessions aliasing one
	// read-only view race-safely share the build). Node indexes are stable
	// across edit generations, so Clone shares an index that exists instead
	// of rebuilding it.
	names    atomic.Pointer[nameIndex]
	nameOnce sync.Once
	vdd      *Node
	gnd      *Node

	// gen counts the edit batches applied to this network in place (see
	// Generation). Like the graph, it belongs to whoever edits the network.
	gen uint64
}

// Generation is the network's edit generation: 0 when built, one more for
// every edit batch applied in place (NextGeneration). A pointer names a
// network; the pair (pointer, generation) names one state of it, so
// anything derived from a network — a stage database, a compiled simulator
// — records both and is stale when either differs.
func (nw *Network) Generation() uint64 { return nw.gen }

// NextGeneration records that an edit batch changed the network in place.
func (nw *Network) NextGeneration() { nw.gen++ }

// nameIndex maps node names to node indexes. Only owner may add to m; a
// network sharing the index with another generation (owner nil, or some
// other network) copies it first.
type nameIndex struct {
	m     map[string]int32
	owner *Network
}

// nameIndex returns the name index, materializing the lazy one. Safe for
// concurrent use on an otherwise immutable network (the fast path is one
// atomic load).
func (nw *Network) nameIndex() *nameIndex {
	if idx := nw.names.Load(); idx != nil {
		return idx
	}
	nw.nameOnce.Do(func() {
		m := make(map[string]int32, len(nw.Nodes))
		for i, n := range nw.Nodes {
			m[n.Name] = int32(i)
		}
		nw.names.Store(&nameIndex{m, nw})
	})
	return nw.names.Load()
}

// New creates an empty network in the given technology. The rails "Vdd"
// and "GND" are created immediately and are accessible via Vdd and GND.
func New(name string, p *tech.Params) *Network {
	if p == nil {
		panic("netlist: nil tech.Params")
	}
	nw := &Network{Name: name, Tech: p}
	nw.names.Store(&nameIndex{make(map[string]int32), nw})
	nw.vdd = nw.Node("Vdd")
	nw.vdd.Kind = KindVdd
	nw.gnd = nw.Node("GND")
	nw.gnd.Kind = KindGnd
	// Rails are ideal sources; they carry no load of their own.
	nw.vdd.Cap = 0
	nw.gnd.Cap = 0
	return nw
}

// Vdd returns the positive supply node.
func (nw *Network) Vdd() *Node { return nw.vdd }

// GND returns the ground node.
func (nw *Network) GND() *Node { return nw.gnd }

// Node returns the node with the given name, creating it (as KindNormal,
// with the technology's default wire capacitance) if it does not exist.
// The names "Vdd", "VDD", "vdd" alias the supply; "GND", "Gnd", "gnd",
// "VSS", "Vss", "vss" alias ground.
func (nw *Network) Node(name string) *Node {
	name = Canonical(name)
	idx := nw.nameIndex()
	if i, ok := idx.m[name]; ok {
		return nw.Nodes[i]
	}
	if idx.owner != nw {
		idx = &nameIndex{maps.Clone(idx.m), nw}
		nw.names.Store(idx)
	}
	n := &Node{Index: len(nw.Nodes), Name: name, Cap: nw.Tech.CWire}
	nw.Nodes = append(nw.Nodes, n)
	idx.m[name] = int32(n.Index)
	return n
}

// Canonical is the name Node files name under: the supply and ground
// aliases become "Vdd" and "GND", every other name is itself.
func Canonical(name string) string {
	switch name {
	case "VDD", "vdd":
		return "Vdd"
	case "Gnd", "gnd", "VSS", "Vss", "vss":
		return "GND"
	}
	return name
}

// Lookup returns the node with the given name, or nil if absent. Unlike
// Node it never creates.
func (nw *Network) Lookup(name string) *Node {
	if i, ok := nw.nameIndex().m[name]; ok {
		return nw.Nodes[i]
	}
	return nil
}

// LookupAll resolves names to nodes, in order; the error names the first
// name no node has.
func (nw *Network) LookupAll(names []string) ([]*Node, error) {
	nodes := make([]*Node, len(names))
	for i, name := range names {
		if nodes[i] = nw.Lookup(name); nodes[i] == nil {
			return nil, fmt.Errorf("no node named %q", name)
		}
	}
	return nodes, nil
}

// Names returns the nodes' names, in order.
func Names(nodes []*Node) []string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	return names
}

// AddTrans adds a transistor of type d with the given terminals and
// geometry (meters). Zero or negative w/l are replaced by the technology
// minima. It returns the new transistor.
func (nw *Network) AddTrans(d tech.Device, gate, a, b *Node, w, l float64) *Trans {
	if w <= 0 {
		w = nw.Tech.MinW
	}
	if l <= 0 {
		l = nw.Tech.MinL
	}
	t := &Trans{Index: len(nw.Trans), Type: d, Gate: gate, A: a, B: b, W: w, L: l}
	nw.Trans = append(nw.Trans, t)
	gate.Gates = append(gate.Gates, t)
	a.Terms = append(a.Terms, t)
	if b != a {
		b.Terms = append(b.Terms, t)
	}
	return t
}

// AddResistor adds an interconnect resistor of r ohms between nodes a and
// b: an always-conducting, strength-preserving element whose resistance
// lives on the element itself. Its "gate" is tied to Vdd for structural
// uniformity. It panics on non-positive resistance (a programming error).
func (nw *Network) AddResistor(a, b *Node, r float64) *Trans {
	if r <= 0 {
		panic(fmt.Sprintf("netlist: resistor %g Ω must be positive", r))
	}
	t := nw.AddTrans(tech.RWire, nw.vdd, a, b, nw.Tech.MinW, nw.Tech.MinL)
	t.ROverride = r
	return t
}

// AddCap adds c farads of explicit capacitance to node n. Capacitance
// between two signal nodes in a .sim file is split half to each, per
// common practice for switch-level tools.
func (nw *Network) AddCap(n *Node, c float64) {
	n.Cap += c
}

// MarkInput declares the named node a chip input (a strong source).
func (nw *Network) MarkInput(n *Node) {
	if n.IsRail() {
		return
	}
	n.Kind = KindInput
}

// MarkOutput declares the named node a watched output.
func (nw *Network) MarkOutput(n *Node) {
	if n.Kind == KindNormal {
		n.Kind = KindOutput
	}
}

// NodeCap returns the total capacitance in farads loading node n: explicit
// capacitance plus the gate capacitance of every device gated by n plus
// one diffusion-terminal capacitance per channel terminal attached.
func (nw *Network) NodeCap(n *Node) float64 {
	c := n.Cap
	for _, t := range n.Gates {
		if t.IsWire() {
			continue // a wire's "gate" tie is structural, not a load
		}
		c += nw.Tech.GateCap(t.W, t.L)
	}
	for _, t := range n.Terms {
		if t.IsWire() {
			continue // wire capacitance is explicit, not diffusion
		}
		c += nw.Tech.DiffCap(t.W)
		if t.A == n && t.B == n {
			c += nw.Tech.DiffCap(t.W) // both terminals land here
		}
	}
	return c
}

// Stats summarizes a network.
type Stats struct {
	Nodes, Trans             int
	NEnh, NDep, PEnh, Wires  int
	Inputs, Outputs          int
	TotalCap                 float64 // farads, explicit + device
	MaxFanout, MaxChannelDeg int
}

// Stats computes summary statistics in one pass.
func (nw *Network) Stats() Stats {
	var s Stats
	s.Nodes = len(nw.Nodes)
	s.Trans = len(nw.Trans)
	for _, t := range nw.Trans {
		switch t.Type {
		case tech.NEnh:
			s.NEnh++
		case tech.NDep:
			s.NDep++
		case tech.PEnh:
			s.PEnh++
		case tech.RWire:
			s.Wires++
		}
	}
	for _, n := range nw.Nodes {
		switch n.Kind {
		case KindInput:
			s.Inputs++
		case KindOutput:
			s.Outputs++
		}
		s.TotalCap += nw.NodeCap(n)
		if len(n.Gates) > s.MaxFanout {
			s.MaxFanout = len(n.Gates)
		}
		if len(n.Terms) > s.MaxChannelDeg {
			s.MaxChannelDeg = len(n.Terms)
		}
	}
	return s
}

// Check verifies structural invariants of the network and returns the
// first violation found, or nil. Invariants: names are unique and
// non-empty; indexes are dense; adjacency lists are consistent with
// transistor terminals; geometry is positive; device types are legal for
// the technology; no transistor gates itself into a rail short
// (gate on a rail is fine; both channel terminals on opposite rails is
// flagged as a supply short).
func (nw *Network) Check() error {
	seen := make(map[string]bool, len(nw.Nodes))
	for i, n := range nw.Nodes {
		if n.Index != i {
			return fmt.Errorf("netlist %s: node %q has index %d, want %d", nw.Name, n.Name, n.Index, i)
		}
		if n.Name == "" {
			return fmt.Errorf("netlist %s: node %d has empty name", nw.Name, i)
		}
		if seen[n.Name] {
			return fmt.Errorf("netlist %s: duplicate node name %q", nw.Name, n.Name)
		}
		seen[n.Name] = true
		if n.Cap < 0 {
			return fmt.Errorf("netlist %s: node %q has negative capacitance %g", nw.Name, n.Name, n.Cap)
		}
	}
	for i, t := range nw.Trans {
		if t.Index != i {
			return fmt.Errorf("netlist %s: transistor %d has index %d", nw.Name, i, t.Index)
		}
		if t.Gate == nil || t.A == nil || t.B == nil {
			return fmt.Errorf("netlist %s: transistor %d has nil terminal", nw.Name, i)
		}
		if t.W <= 0 || t.L <= 0 {
			return fmt.Errorf("netlist %s: transistor %d has non-positive geometry %gx%g", nw.Name, i, t.W, t.L)
		}
		if t.Type == tech.PEnh && !nw.Tech.HasPChannel() {
			return fmt.Errorf("netlist %s: p-channel transistor %d in technology %s", nw.Name, i, nw.Tech.Name)
		}
		if t.Type == tech.RWire && t.ROverride <= 0 {
			return fmt.Errorf("netlist %s: wire resistor %d has no resistance", nw.Name, i)
		}
		if t.Type != tech.RWire && t.ROverride != 0 {
			return fmt.Errorf("netlist %s: transistor %d carries a resistance override", nw.Name, i)
		}
		if (t.A.Kind == KindVdd && t.B.Kind == KindGnd) || (t.A.Kind == KindGnd && t.B.Kind == KindVdd) {
			return fmt.Errorf("netlist %s: transistor %d shorts the supplies through one channel", nw.Name, i)
		}
	}
	// Adjacency consistency in O(nodes + edges). A per-transistor scan of
	// the terminal lists (`t ∈ t.A.Terms`) is quadratic on rails — GND's
	// Terms holds a large fraction of every transistor in the design, so a
	// chip-scale Check would spend minutes re-walking it. Instead walk
	// each list once: every entry must name the owning node among its
	// terminals (validity), appear at most once per list (dedup marker),
	// and the per-transistor tallies must land exactly on the expected
	// membership count (1 gate list; 1 terminal list when A == B, else 2).
	gateSeen := make([]uint8, len(nw.Trans))
	termSeen := make([]uint8, len(nw.Trans))
	lastList := make([]int32, len(nw.Trans)) // node index+1 of the last Terms list naming this trans
	for _, n := range nw.Nodes {
		for _, t := range n.Gates {
			if t == nil || t.Index < 0 || t.Index >= len(nw.Trans) || nw.Trans[t.Index] != t {
				return fmt.Errorf("netlist %s: gate list of %q holds a foreign transistor", nw.Name, n.Name)
			}
			if t.Gate != n {
				return fmt.Errorf("netlist %s: gate list of %q holds transistor %d gated by %q", nw.Name, n.Name, t.Index, t.Gate.Name)
			}
			if gateSeen[t.Index] != 0 {
				return fmt.Errorf("netlist %s: transistor %d appears twice in the gate list of %q", nw.Name, t.Index, n.Name)
			}
			gateSeen[t.Index] = 1
		}
		for _, t := range n.Terms {
			if t == nil || t.Index < 0 || t.Index >= len(nw.Trans) || nw.Trans[t.Index] != t {
				return fmt.Errorf("netlist %s: terminal list of %q holds a foreign transistor", nw.Name, n.Name)
			}
			if t.A != n && t.B != n {
				return fmt.Errorf("netlist %s: terminal list of %q holds transistor %d with terminals %q/%q", nw.Name, n.Name, t.Index, t.A.Name, t.B.Name)
			}
			if lastList[t.Index] == int32(n.Index)+1 {
				return fmt.Errorf("netlist %s: transistor %d appears twice in the terminal list of %q", nw.Name, t.Index, n.Name)
			}
			lastList[t.Index] = int32(n.Index) + 1
			termSeen[t.Index]++
		}
	}
	for i, t := range nw.Trans {
		if gateSeen[i] == 0 {
			return fmt.Errorf("netlist %s: transistor %d missing from gate list of %q", nw.Name, i, t.Gate.Name)
		}
		want := uint8(2)
		if t.A == t.B {
			want = 1
		}
		if termSeen[i] != want {
			return fmt.Errorf("netlist %s: transistor %d missing from a terminal list", nw.Name, i)
		}
	}
	for i, inst := range nw.Instances {
		if inst.Path == "" {
			return fmt.Errorf("netlist %s: instance %d has empty path", nw.Name, i)
		}
		if inst.TransLo < 0 || inst.TransHi < inst.TransLo || inst.TransHi > len(nw.Trans) {
			return fmt.Errorf("netlist %s: instance %q has transistor range [%d,%d) outside [0,%d)",
				nw.Name, inst.Path, inst.TransLo, inst.TransHi, len(nw.Trans))
		}
	}
	return nil
}

// SortedNodeNames returns all node names in lexical order; handy for
// deterministic reports and tests.
func (nw *Network) SortedNodeNames() []string {
	names := make([]string, 0, len(nw.Nodes))
	for _, n := range nw.Nodes {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

// Inputs returns all nodes marked as chip inputs, in index order.
func (nw *Network) Inputs() []*Node {
	var in []*Node
	for _, n := range nw.Nodes {
		if n.Kind == KindInput {
			in = append(in, n)
		}
	}
	return in
}

// Outputs returns all nodes marked as watched outputs, in index order.
func (nw *Network) Outputs() []*Node {
	var out []*Node
	for _, n := range nw.Nodes {
		if n.Kind == KindOutput {
			out = append(out, n)
		}
	}
	return out
}
