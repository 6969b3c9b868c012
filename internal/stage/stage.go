// Package stage implements Crystal's central structural abstraction: the
// *stage*. A stage is a path of (potentially) conducting transistors from
// a strong signal source — a supply rail or a chip input — through the
// channel graph to a target node, together with all the capacitance the
// path must charge or discharge, including side branches hanging off the
// path. Every delay model in this repository evaluates stages; the timing
// verifier enumerates them.
//
// A stage record holds node and transistor *indexes*, never pointers into
// a network: the edit engine keeps indexes stable across generations for
// every channel group it leaves clean, so one record serves every
// generation that shares it and pins none of them. Names and device
// geometry are read through whichever network the caller currently holds.
package stage

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// Conduction is the three-valued answer to "does this transistor's channel
// conduct?" supplied by the sensitization oracle.
type Conduction uint8

const (
	// Off: the channel definitely does not conduct; paths may not use it.
	Off Conduction = iota
	// On: the channel definitely conducts.
	On
	// Maybe: unknown; worst-case analysis must assume it may conduct.
	Maybe
)

// Oracle reports channel conduction for path enumeration. A nil oracle
// means worst case: every device may conduct (except those with FlowOff).
type Oracle func(t *netlist.Trans) Conduction

// worstCase is the nil-oracle behaviour.
func worstCase(*netlist.Trans) Conduction { return Maybe }

// NoTrans is the Trigger of a stage no path transistor initiates.
const NoTrans = -1

// Element is one transistor hop on a stage path, oriented source→target,
// as indexes into Network.Trans and Network.Nodes.
type Element struct {
	Trans int32
	// From is the terminal nearer the stage's source; To nearer the target.
	From, To int32
}

// SideLoad is capacitance hanging off the path: a node reachable from a
// path node through conducting side transistors.
type SideLoad struct {
	Node int32
	// Attach indexes the path position the branch hangs from: 0 attaches
	// at the source node, i>0 at Path[i-1].To.
	Attach int32
	// R is the accumulated side-branch resistance from the attach point
	// to Node, in ohms, for the stage's transition direction.
	R float64
	// C is the capacitance of Node in farads.
	C float64
}

// Consts are the constants a delay model derives from one (stage, tables)
// pair: everything an evaluation needs other than the input slope. An
// enumerated stage is immutable, so they are computed on the first
// evaluation under a table set and kept inline in the record; package
// delay defines their meaning.
type Consts struct {
	// TauStep is the intrinsic (step-input) Elmore delay.
	TauStep float64
	// Split-walk replay terms: the delay at driver multiplier m is
	// High + (RDrv·m)·AccDrv + Σ Low()[j], j = driver-1 … 0.
	High, RDrv, AccDrv float64
	// Lumped is the lumped model's delay: series R × total C.
	Lumped float64
}

// Stage is a driving path plus its loading: one fixed-size record of an
// enumeration result. The variable-length parts — Path, Side, PathCap and
// the split-replay slots — live in the packed arrays of the Slab the record
// belongs to, addressed by offset.
type Stage struct {
	// The fields an evaluation from the record's constants reads come
	// first, so the drain's walk over a slab touches the head of each
	// record only.

	// Target is the node whose transition this stage times.
	Target int32
	// srcInput is Source+1 when the source is a chip input, 0 otherwise:
	// the analyzer's per-evaluation source-validity check.
	srcInput int32
	// pathBloom is a 64-bit bloom of the path transistors' indexes; a clear
	// bit proves a transistor is not on the path.
	pathBloom uint64
	// constsKey is the key consts were computed under, 0 while they are
	// empty. They are rewritten only when a table set with another key
	// evaluates the record.
	constsKey uint64
	consts    Consts
	// slab owns the arrays the record's variable-length parts live in: in
	// slab.f from capOff the nPath path capacitances, then driver
	// split-replay slots; nPath elements of slab.path from pathOff; nSide
	// side loads of slab.side from sideOff.
	slab                            *Slab
	capOff, pathOff, sideOff, nSide uint32
	nPath                           uint16
	// driver is the path index of the element whose device governs the
	// stage's slope behaviour (the trigger if on the path, else the
	// source-adjacent element), driverType that device's type and
	// transition the direction Target moves (Rise when Source is high).
	driver                 uint16
	driverType, transition uint8

	// Source is the strong node supplying the transition (rail or input).
	Source int32
	// Trigger is the path transistor whose gate transition initiates the
	// stage, or NoTrans when the stage is initiated by a channel-side event
	// (an input transition propagating through already-on devices) or by
	// another device turning off (load pullup stages).
	Trigger int32
}

// Path runs source→target; never empty.
func (s *Stage) Path() []Element {
	return s.slab.path[s.pathOff : s.pathOff+uint32(s.nPath)]
}

// Side holds off-path capacitive loading, ordered by ascending Attach —
// the invariant the delay models' allocation-free Elmore merge relies on.
func (s *Stage) Side() []SideLoad {
	return s.slab.side[s.sideOff : s.sideOff+s.nSide]
}

// PathCap is the total capacitance of each path node (PathCap()[i] loads
// Path()[i].To), so delay models never re-walk adjacency lists.
func (s *Stage) PathCap() []float64 {
	return s.slab.f[s.capOff : s.capOff+uint32(s.nPath)]
}

// Transition is the direction Target moves.
func (s *Stage) Transition() tech.Transition { return tech.Transition(s.transition) }

// Consts returns the record's constants and whether they were computed
// under key (which must not be 0). On a miss it files the record under key,
// and the caller fills the constants in, together with Low: a record holds
// one table set's constants at a time.
func (s *Stage) Consts(key uint64) (*Consts, bool) {
	if s.constsKey == key {
		return &s.consts, true
	}
	s.constsKey = key
	return &s.consts, false
}

// Low returns the Driver split-replay slots, filled in with the constants.
func (s *Stage) Low() []float64 {
	if s.driver == 0 {
		return nil // the common case: the driver is the source-adjacent element
	}
	lo := s.capOff + uint32(s.nPath)
	return s.slab.f[lo : lo+uint32(s.driver)]
}

// Driver returns the path index of the element whose slope curve governs
// the stage.
func (s *Stage) Driver() int { return int(s.driver) }

// DriverType returns the device type of the driver element.
func (s *Stage) DriverType() tech.Device { return tech.Device(s.driverType) }

// SourceInputIndex returns the node index of the stage's source when that
// source is a chip input, and -1 otherwise.
func (s *Stage) SourceInputIndex() int { return int(s.srcInput) - 1 }

// UsesTrans reports whether the stage's path runs through the transistor
// with index ti. The bloom filter rejects most queries without touching
// the path. A stage memoized in a previous edit generation describes the
// same device under the same index (the incremental engine re-enumerates
// any group whose indexes were disturbed), so cross-generation queries
// still answer correctly.
func (s *Stage) UsesTrans(ti int) bool {
	if s.pathBloom&(1<<(uint(ti)&63)) == 0 {
		return false
	}
	for _, e := range s.Path() {
		if int(e.Trans) == ti {
			return true
		}
	}
	return false
}

// String renders the stage by index: "n0 -(t3)-> n7 [rise]". Format names
// the nets.
func (s *Stage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", s.Source)
	for _, e := range s.Path() {
		fmt.Fprintf(&b, " -(t%d)-> n%d", e.Trans, e.To)
	}
	fmt.Fprintf(&b, " [%s]", s.Transition())
	return b.String()
}

// Format renders the stage through nw's names:
// "Vdd -(d g=out)-> out [rise]".
func (s *Stage) Format(nw *netlist.Network) string {
	var b strings.Builder
	b.WriteString(nw.Nodes[s.Source].Name)
	for _, e := range s.Path() {
		t := nw.Trans[e.Trans]
		fmt.Fprintf(&b, " -(%s g=%s)-> %s", t.Type, t.Gate.Name, nw.Nodes[e.To].Name)
	}
	fmt.Fprintf(&b, " [%s]", s.Transition())
	return b.String()
}

// elementR returns the effective resistance of one element for the given
// transition: the element's own override (wire resistors) or the
// technology's rule-of-thumb table.
func elementR(p *tech.Params, t *netlist.Trans, tr tech.Transition) float64 {
	if t.ROverride > 0 {
		return t.ROverride
	}
	return p.R(t.Type, tr, t.W, t.L)
}

// SeriesR returns the total series resistance of the path in ohms for the
// stage's transition, using the technology's step-input effective
// resistances (callers with calibrated tables scale per element).
func (s *Stage) SeriesR(nw *netlist.Network) float64 {
	r, tr := 0.0, s.Transition()
	for _, e := range s.Path() {
		r += elementR(nw.Tech, nw.Trans[e.Trans], tr)
	}
	return r
}

// TotalC returns the total capacitance the stage drives: every path node
// after the source, plus all side loads.
func (s *Stage) TotalC() float64 {
	c := 0.0
	for _, pc := range s.PathCap() {
		c += pc
	}
	for _, sl := range s.Side() {
		c += sl.C
	}
	return c
}

// Validate checks structural sanity of a stage: non-empty contiguous path
// from source to target with sane loading.
func (s *Stage) Validate() error {
	path := s.Path()
	if len(path) == 0 {
		return fmt.Errorf("stage: empty path")
	}
	if path[0].From != s.Source {
		return fmt.Errorf("stage: path starts at n%d, source is n%d", path[0].From, s.Source)
	}
	if path[len(path)-1].To != s.Target {
		return fmt.Errorf("stage: path ends at n%d, target is n%d", path[len(path)-1].To, s.Target)
	}
	for i := 1; i < len(path); i++ {
		if path[i].From != path[i-1].To {
			return fmt.Errorf("stage: discontinuity at element %d", i)
		}
	}
	for _, sl := range s.Side() {
		if sl.Attach < 0 || int(sl.Attach) > len(path) {
			return fmt.Errorf("stage: side load attach %d out of range", sl.Attach)
		}
		if sl.C < 0 || sl.R < 0 || math.IsNaN(sl.C) || math.IsNaN(sl.R) {
			return fmt.Errorf("stage: bad side load on n%d", sl.Node)
		}
	}
	return nil
}
