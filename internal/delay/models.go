// The three delay models. Each maps (stage, input slope) to a delay and an
// output slope; the verifier propagates both.
package delay

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/netlist"
	"repro/internal/rctree"
	"repro/internal/stage"
	"repro/internal/tech"
)

// Result is a stage evaluation: the 50%-to-50% delay from the triggering
// event to the target's crossing, and the estimated 10–90% transition time
// of the target, which feeds the slope model of successor stages.
type Result struct {
	Delay float64
	Slope float64
}

// Model is a switch-level delay model. A model value may be shared across
// goroutines (it is stateless over its tables), but the stages it evaluates
// may not: Evaluate writes the delay constants it caches into the stage
// record, and a stage database belongs to one analysis at a time.
type Model interface {
	// Name identifies the model in reports ("lumped", "rc", "slope").
	Name() string
	// Evaluate computes the stage's delay given the 10–90% transition
	// time of the triggering input. Models that ignore input slope
	// (lumped, rc) accept and discard it.
	Evaluate(nw *netlist.Network, st *stage.Stage, inSlope float64) Result
}

// elemR returns the effective resistance of a path element under the
// model's tables, honoring per-element overrides (wire resistors).
func elemR(tb *Tables, t *netlist.Trans, tr tech.Transition) float64 {
	if t.ROverride > 0 {
		return t.ROverride
	}
	return tb.R(t.Type, tr, t.W, t.L)
}

// Lumped is the paper's first model: total series resistance times total
// capacitance. Fast, simple, and pessimistic on distributed structures —
// it charges all capacitance through all resistance.
type Lumped struct {
	T *Tables
}

// NewLumped returns the lumped-RC model over the given tables.
func NewLumped(t *Tables) *Lumped { return &Lumped{T: t} }

// Name implements Model.
func (m *Lumped) Name() string { return "lumped" }

// Evaluate implements Model: delay = ΣR × ΣC, and the driver's output
// transition shape over that lumped τ.
func (m *Lumped) Evaluate(nw *netlist.Network, st *stage.Stage, _ float64) Result {
	c := constsFor(m.T, nw, st)
	return Result{Delay: c.Lumped, Slope: tf0(m.T, st) * c.Lumped}
}

// seriesR is the path's total effective resistance under tb.
func seriesR(tb *Tables, nw *netlist.Network, st *stage.Stage) float64 {
	r, tr := 0.0, st.Transition()
	for _, e := range st.Path() {
		r += elemR(tb, nw.Trans[e.Trans], tr)
	}
	return r
}

// RC is the paper's second model: the stage as a distributed RC tree, with
// the Elmore delay at the target as the estimate. Asymptotically correct
// for pass-transistor chains (≈ n²/2 growth instead of the lumped n²) but
// still blind to input slope.
type RC struct {
	T *Tables
}

// NewRC returns the distributed-RC model over the given tables.
func NewRC(t *Tables) *RC { return &RC{T: t} }

// Name implements Model.
func (m *RC) Name() string { return "rc" }

// Evaluate implements Model.
func (m *RC) Evaluate(nw *netlist.Network, st *stage.Stage, _ float64) Result {
	c := constsFor(m.T, nw, st)
	return Result{Delay: c.TauStep, Slope: tf0(m.T, st) * c.TauStep}
}

// tf0 is the output-transition factor of the stage's driver at slope
// ratio 0 — the step-input shape the slope-blind models report. It depends
// on the tables, the driver type and the transition alone, so the record
// does not keep it.
func tf0(tb *Tables, st *stage.Stage) float64 {
	_, tf := tb.Curve(st.DriverType(), st.Transition()).At(0)
	return tf
}

// elmoreSplit computes the Elmore delay of the stage target under tb, and
// splits it at path position at for the slope model's replay from a
// stage's constants. Because the target lies on the main path,
// side-branch resistances never enter its Elmore sum — each path element
// contributes R·(all capacitance at or beyond it, side loads included) —
// so a single backwards pass suffices and no tree is built; the side
// loads, sorted by attach position at stage construction, merge into the
// walk. stageTree remains the reference implementation (the equivalence
// is pinned by a test).
//
// The walk visits path positions n-1 … 0; relative to position at it
// returns the running sum of the terms visited before it (high), the
// unscaled resistance and downstream capacitance at it, and records the
// terms visited after it in low[0:at]. Folding high + (rAt·m)·accAt +
// low[at-1 … 0] gives the Elmore delay with the resistance at position at
// scaled by m.
func elmoreSplit(tb *Tables, nw *netlist.Network, st *stage.Stage, at int, low []float64) (tau, high, rAt, accAt float64) {
	path, side, pathCap, tr := st.Path(), st.Side(), st.PathCap(), st.Transition()
	acc := 0.0
	si := len(side) - 1
	for i := len(path); i >= 1; i-- {
		acc += pathCap[i-1]
		// Side loads attached at or beyond this position are downstream
		// of element i and charge through it. Attach 0 hangs at the
		// ideal source and never enters (the loop stops at i=1).
		for si >= 0 && int(side[si].Attach) >= i {
			acc += side[si].C
			si--
		}
		r := elemR(tb, nw.Trans[path[i-1].Trans], tr)
		p := r * acc
		switch {
		case i-1 > at:
			high += p
		case i-1 == at:
			rAt, accAt = r, acc
		default:
			low[i-1] = p
		}
		tau += p
	}
	return tau, high, rAt, accAt
}

// treePool recycles RC-tree scratch buffers across Bounds evaluations so
// a bounds sweep does not allocate a fresh tree per stage.
var treePool = sync.Pool{New: func() any { return rctree.New(0, "") }}

// stageTree builds the stage's RC tree using table resistances (not the
// raw technology numbers), so characterized tables flow through every
// model identically.
func stageTree(tb *Tables, nw *netlist.Network, st *stage.Stage, rscale []float64) (*rctree.Tree, []int) {
	return stageTreeInto(rctree.New(0, nw.Nodes[st.Source].Name), tb, nw, st, rscale)
}

// stageTreeInto is stageTree over a caller-supplied (possibly recycled)
// tree, which must already be reset to a bare root.
func stageTreeInto(t *rctree.Tree, tb *Tables, nw *netlist.Network, st *stage.Stage, rscale []float64) (*rctree.Tree, []int) {
	path := st.Path()
	idx := make([]int, len(path)+1)
	for i, e := range path {
		r := elemR(tb, nw.Trans[e.Trans], st.Transition())
		if rscale != nil && rscale[i] > 0 {
			r *= rscale[i]
		}
		to := nw.Nodes[e.To]
		idx[i+1] = t.Add(idx[i], r, nw.NodeCap(to), to.Name)
	}
	for _, sl := range st.Side() {
		if sl.R <= 0 {
			t.AddCap(idx[sl.Attach], sl.C)
			continue
		}
		t.Add(idx[sl.Attach], sl.R, sl.C, nw.Nodes[sl.Node].Name)
	}
	return t, idx
}

// Slope is the paper's headline model. The effective resistance of the
// stage's driving transistor is not constant: it is the step-input value
// multiplied by an empirical function of the slope ratio
//
//	r = Tin / τstep
//
// where Tin is the input's 10–90% transition time and τstep the stage's
// intrinsic (step-input) Elmore delay. The multiplier curves are
// characterized per device type and transition from the circuit-level
// reference, exactly as the paper characterized them from SPICE. The
// output transition time comes from the companion TFactor curve, so slope
// information propagates stage to stage.
type Slope struct {
	T *Tables
}

// NewSlope returns the slope model over the given tables.
func NewSlope(t *Tables) *Slope { return &Slope{T: t} }

// Name implements Model.
func (m *Slope) Name() string { return "slope" }

// Evaluate implements Model. The intrinsic Elmore pass records its
// per-element terms in the stage's constants, and the scaled delay (driver
// resistance × slope multiplier) is replayed from them.
func (m *Slope) Evaluate(nw *netlist.Network, st *stage.Stage, inSlope float64) Result {
	c := constsFor(m.T, nw, st)
	if c.TauStep <= 0 {
		return Result{Delay: c.TauStep, Slope: math.Log(9) * c.TauStep}
	}
	ratio := 0.0
	if inSlope > 0 {
		ratio = inSlope / c.TauStep
	}
	mult, tfactor := m.T.Curve(st.DriverType(), st.Transition()).At(ratio)
	d := c.High + (c.RDrv*mult)*c.AccDrv
	low := st.Low()
	for j := len(low) - 1; j >= 0; j-- {
		d += low[j]
	}
	return Result{Delay: d, Slope: tfactor * c.TauStep}
}

// Bounded wraps the RC model's tree with the Rubinstein–Penfield–Horowitz
// bounds: Evaluate returns the Elmore point estimate while Bounds exposes
// the certificate interval. It exists for the E8 ablation.
type Bounded struct {
	T *Tables
	// V is the crossing fraction for the bounds (default 0.5).
	V float64
}

// Name implements Model.
func (m *Bounded) Name() string { return "rc-bounded" }

// Evaluate implements Model (identical to RC's point estimate).
func (m *Bounded) Evaluate(nw *netlist.Network, st *stage.Stage, in float64) Result {
	return (&RC{T: m.T}).Evaluate(nw, st, in)
}

// Bounds returns the RPH lower/upper bounds on the target's crossing time.
func (m *Bounded) Bounds(nw *netlist.Network, st *stage.Stage) (lo, hi float64, err error) {
	v := m.V
	if v <= 0 || v >= 1 {
		v = 0.5
	}
	t := treePool.Get().(*rctree.Tree)
	defer treePool.Put(t)
	t.Reset(0, nw.Nodes[st.Source].Name)
	t, idx := stageTreeInto(t, m.T, nw, st, nil)
	if err := t.Validate(); err != nil {
		return 0, 0, fmt.Errorf("stage tree: %w", err)
	}
	lo, hi = t.DelayBounds(idx[len(idx)-1], v)
	return lo, hi, nil
}

// ByName returns the standard model with the given name over tables t.
func ByName(name string, t *Tables) (Model, error) {
	switch name {
	case "lumped":
		return NewLumped(t), nil
	case "rc", "distributed":
		return NewRC(t), nil
	case "slope":
		return NewSlope(t), nil
	case "rc-bounded":
		return &Bounded{T: t}, nil
	}
	return nil, fmt.Errorf("delay: unknown model %q (want lumped, rc, slope)", name)
}

// All returns one instance of each primary model, in fidelity order.
func All(t *Tables) []Model {
	return []Model{NewLumped(t), NewRC(t), NewSlope(t)}
}
