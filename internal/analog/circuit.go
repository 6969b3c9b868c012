// Package analog is the circuit-level reference simulator of this
// repository — the stand-in for the SPICE runs the paper used both to
// characterize its slope-model tables and to measure the accuracy of the
// switch-level delay models. It implements modified nodal analysis with
// Norton companion models, backward-Euler integration at a fixed timestep,
// and damped Newton–Raphson for the nonlinear MOS devices (Shichman–Hodges
// level-1 model).
//
// The simulator is deliberately small: dense matrices, fixed steps, three
// device archetypes (R, C, V-source) plus the MOSFET. That is all the
// evaluation needs, and it keeps the reference auditable.
package analog

import (
	"fmt"
	"math"

	"repro/internal/tech"
)

// gmin is a tiny conductance from every node to ground, preventing
// singular matrices for momentarily floating nodes (e.g. a pass-transistor
// output while the device is cut off).
const gmin = 1e-9

// Circuit is a flat analog circuit: named nodes plus devices. Node 0 is
// ground. Build one with NewCircuit, add devices, then call Tran.
type Circuit struct {
	names  []string
	byName map[string]int
	devs   []device
	nvsrc  int // number of independent voltage sources (extra MNA rows)
}

// NewCircuit returns an empty circuit with only the ground node ("0").
func NewCircuit() *Circuit {
	c := &Circuit{byName: make(map[string]int)}
	c.names = append(c.names, "0")
	c.byName["0"] = 0
	c.byName["GND"] = 0
	return c
}

// Node returns the index for the named node, creating it on first use.
// "0" and "GND" are ground.
func (c *Circuit) Node(name string) int {
	if i, ok := c.byName[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.byName[name] = i
	return i
}

// device is the element interface. stamp adds the device's linearized
// companion contribution for the current Newton iterate x (node voltages
// indexed by node number, ground entry 0 always 0; source currents appended
// after). commit is called once per accepted timestep with the solved
// voltages so devices with state (capacitors) can advance.
type device interface {
	stamp(st *stamper, t, dt float64, x []float64)
	commit(t, dt float64, x []float64)
	nonlinear() bool
}

// stamper adapts node-numbered stamps onto the reduced MNA system (ground
// eliminated).
type stamper struct {
	m     *matrix
	b     []float64
	nv    int // number of non-ground nodes
	srcAt int // next source row to hand out is nv+srcAt
}

// row maps a node index to its matrix row, or -1 for ground.
func (s *stamper) row(node int) int { return node - 1 }

// addG stamps a conductance g between nodes a and b.
func (s *stamper) addG(a, b int, g float64) {
	ra, rb := s.row(a), s.row(b)
	if ra >= 0 {
		s.m.add(ra, ra, g)
	}
	if rb >= 0 {
		s.m.add(rb, rb, g)
	}
	if ra >= 0 && rb >= 0 {
		s.m.add(ra, rb, -g)
		s.m.add(rb, ra, -g)
	}
}

// addGat stamps an asymmetric conductance term: current into node `into`
// proportional to voltage at node `from` with coefficient g (used for the
// transconductance of MOSFETs).
func (s *stamper) addGat(into, fromPlus, fromMinus int, g float64) {
	ri := s.row(into)
	if ri < 0 {
		return
	}
	if rp := s.row(fromPlus); rp >= 0 {
		s.m.add(ri, rp, g)
	}
	if rm := s.row(fromMinus); rm >= 0 {
		s.m.add(ri, rm, -g)
	}
}

// addI stamps an independent current i flowing from node a into node b
// (i.e. out of a, into b).
func (s *stamper) addI(a, b int, i float64) {
	if ra := s.row(a); ra >= 0 {
		s.b[ra] -= i
	}
	if rb := s.row(b); rb >= 0 {
		s.b[rb] += i
	}
}

// vsourceRow allocates the next MNA branch row (one per voltage source per
// assembly pass) and stamps the source v between plus and minus.
func (s *stamper) vsourceRow(plus, minus int, v float64) {
	r := s.nv + s.srcAt
	s.srcAt++
	if rp := s.row(plus); rp >= 0 {
		s.m.add(rp, r, 1)
		s.m.add(r, rp, 1)
	}
	if rm := s.row(minus); rm >= 0 {
		s.m.add(rm, r, -1)
		s.m.add(r, rm, -1)
	}
	s.b[r] += v
}

// --- Devices ---------------------------------------------------------------

type resistor struct {
	a, b int
	g    float64
}

// AddResistor connects r ohms between nodes a and b.
func (c *Circuit) AddResistor(a, b int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("analog: resistor %g Ω must be positive", r))
	}
	c.devs = append(c.devs, &resistor{a: a, b: b, g: 1 / r})
}

func (r *resistor) stamp(st *stamper, _, _ float64, _ []float64) { st.addG(r.a, r.b, r.g) }
func (r *resistor) commit(_, _ float64, _ []float64)             {}
func (r *resistor) nonlinear() bool                              { return false }

type capacitor struct {
	a, b    int
	c       float64
	vprev   float64
	iprev   float64 // branch current at the previous step (trapezoidal)
	trap    bool
	started bool // first trapezoidal step bootstraps with backward Euler
}

// AddCapacitor connects cf farads between nodes a and b, with initial
// voltage v0 across it (a positive relative to b).
func (c *Circuit) AddCapacitor(a, b int, cf, v0 float64) {
	if cf < 0 {
		panic(fmt.Sprintf("analog: capacitance %g F must be non-negative", cf))
	}
	c.devs = append(c.devs, &capacitor{a: a, b: b, c: cf, vprev: v0})
}

func (cp *capacitor) stamp(st *stamper, _, dt float64, _ []float64) {
	if cp.trap && cp.started {
		// Trapezoidal companion: i = (2C/dt)·(v − vprev) − iprev.
		geq := 2 * cp.c / dt
		st.addG(cp.a, cp.b, geq)
		st.addI(cp.b, cp.a, geq*cp.vprev+cp.iprev)
		return
	}
	// Backward-Euler companion: i = (C/dt)·v − (C/dt)·vprev. Also used
	// to bootstrap the first trapezoidal step, which has no consistent
	// previous branch current yet.
	geq := cp.c / dt
	st.addG(cp.a, cp.b, geq)
	st.addI(cp.b, cp.a, geq*cp.vprev) // current source geq·vprev from b to a
}

func (cp *capacitor) commit(_, dt float64, x []float64) {
	v := x[cp.a] - x[cp.b]
	if cp.trap {
		if cp.started {
			cp.iprev = 2*cp.c/dt*(v-cp.vprev) - cp.iprev
		} else {
			cp.iprev = cp.c / dt * (v - cp.vprev) // BE estimate of i
			cp.started = true
		}
	}
	cp.vprev = v
}
func (cp *capacitor) nonlinear() bool { return false }

// Waveform is a voltage source value as a function of time (seconds).
type Waveform func(t float64) float64

// DC returns a constant waveform.
func DC(v float64) Waveform { return func(float64) float64 { return v } }

// Step returns a waveform that switches from v0 to v1 at time t0.
func Step(v0, v1, t0 float64) Waveform {
	return func(t float64) float64 {
		if t < t0 {
			return v0
		}
		return v1
	}
}

// Ramp returns a waveform that transitions linearly from v0 to v1 over
// [t0, t0+tr]; a zero or negative tr degenerates to a step.
func Ramp(v0, v1, t0, tr float64) Waveform {
	return func(t float64) float64 {
		switch {
		case t <= t0 || tr <= 0:
			if t <= t0 {
				return v0
			}
			return v1
		case t >= t0+tr:
			return v1
		default:
			return v0 + (v1-v0)*(t-t0)/tr
		}
	}
}

// PWL returns a piecewise-linear waveform through the given (time, value)
// points, constant before the first and after the last. Times must be
// non-decreasing.
func PWL(times, values []float64) Waveform {
	if len(times) != len(values) || len(times) == 0 {
		panic("analog: PWL needs equal-length, non-empty point lists")
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			panic("analog: PWL times must be non-decreasing")
		}
	}
	ts := append([]float64(nil), times...)
	vs := append([]float64(nil), values...)
	return func(t float64) float64 {
		if t <= ts[0] {
			return vs[0]
		}
		for i := 1; i < len(ts); i++ {
			if t <= ts[i] {
				span := ts[i] - ts[i-1]
				if span <= 0 {
					return vs[i]
				}
				f := (t - ts[i-1]) / span
				return vs[i-1] + f*(vs[i]-vs[i-1])
			}
		}
		return vs[len(vs)-1]
	}
}

type vsource struct {
	plus, minus int
	w           Waveform
}

// AddVSource connects an ideal voltage source between plus and minus whose
// value follows the waveform.
func (c *Circuit) AddVSource(plus, minus int, w Waveform) {
	c.devs = append(c.devs, &vsource{plus: plus, minus: minus, w: w})
	c.nvsrc++
}

func (v *vsource) stamp(st *stamper, t, _ float64, _ []float64) {
	st.vsourceRow(v.plus, v.minus, v.w(t))
}
func (v *vsource) commit(_, _ float64, _ []float64) {}
func (v *vsource) nonlinear() bool                  { return false }

// mosfet is a Shichman–Hodges (SPICE level-1) MOS transistor. The channel
// is treated symmetrically: drain and source roles are assigned each
// evaluation from the terminal voltages, which is what lets the same
// element serve pass-transistor duty.
type mosfet struct {
	d, g, s int
	ttype   tech.Device
	vt      float64
	beta    float64 // KP·W/L
	lam     float64 // channel length modulation
}

// AddMOS adds a MOSFET with terminals (drain, gate, source), device type
// ttype, and geometry w×l meters, taking model parameters from p.
func (c *Circuit) AddMOS(ttype tech.Device, d, g, s int, w, l float64, p *tech.Params) {
	kp := p.KP(ttype)
	if kp <= 0 {
		panic(fmt.Sprintf("analog: technology %s has no %s devices", p.Name, ttype))
	}
	c.devs = append(c.devs, &mosfet{
		d: d, g: g, s: s,
		ttype: ttype,
		vt:    p.Vt(ttype),
		beta:  kp * w / l,
		lam:   p.ChannelLambda,
	})
}

// ids evaluates the level-1 drain current and its partial derivatives for
// an n-type sign convention: vgs, vds are pre-normalized so the device
// conducts for vgs > vt and vds ≥ 0.
func level1(beta, vt, lam, vgs, vds float64) (id, gm, gds float64) {
	vov := vgs - vt
	if vov <= 0 {
		return 0, 0, 0
	}
	if vds < vov {
		// Linear (triode) region.
		id = beta * (vov*vds - vds*vds/2) * (1 + lam*vds)
		gm = beta * vds * (1 + lam*vds)
		gds = beta*(vov-vds)*(1+lam*vds) + beta*(vov*vds-vds*vds/2)*lam
	} else {
		// Saturation.
		id = beta / 2 * vov * vov * (1 + lam*vds)
		gm = beta * vov * (1 + lam*vds)
		gds = beta / 2 * vov * vov * lam
	}
	return id, gm, gds
}

func (m *mosfet) stamp(st *stamper, _, _ float64, x []float64) {
	vd, vg, vs := x[m.d], x[m.g], x[m.s]
	// Normalize polarity: p-channel devices are the mirror image.
	sign := 1.0
	if m.ttype == tech.PEnh {
		sign = -1
	}
	nvd, nvg, nvs := sign*vd, sign*vg, sign*vs
	// Assign drain/source from channel polarity (symmetric device).
	dNode, sNode := m.d, m.s
	if nvd < nvs {
		nvd, nvs = nvs, nvd
		dNode, sNode = m.s, m.d
	}
	vgs := nvg - nvs
	vds := nvd - nvs
	vt := m.vt
	if m.ttype == tech.PEnh {
		vt = -m.vt // mirrored threshold is positive in normalized frame
	}
	id, gm, gds := level1(m.beta, vt, m.lam, vgs, vds)
	// In the normalized frame current id flows from drain to source. The
	// frame flip for p-channel reverses both node roles and sign, which
	// cancels: stamping in terms of dNode/sNode with the normalized
	// linearization is correct for both polarities because dNode/sNode
	// were chosen in the normalized frame and currents map back with the
	// same sign convention (i·sign flows dNode→sNode in real voltages,
	// and the conductances are invariant under the double sign flip).
	ieq := id - gm*vgs - gds*vds
	// Conductance gds between dNode and sNode.
	st.addG(dNode, sNode, gds)
	// Transconductance: current into dNode from (g − sNode) voltage.
	st.addGat(dNode, m.g, sNode, gm)
	st.addGat(sNode, m.g, sNode, -gm)
	// Residual current source dNode→sNode of value ieq, expressed in the
	// normalized frame; map back with sign.
	if sign > 0 {
		st.addI(dNode, sNode, ieq)
	} else {
		st.addI(sNode, dNode, ieq)
	}
}

func (m *mosfet) commit(_, _ float64, _ []float64) {}
func (m *mosfet) nonlinear() bool                  { return true }

// hasNaN reports whether the vector contains NaN or Inf.
func hasNaN(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
