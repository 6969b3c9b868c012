// Package tech defines MOS technology parameter sets used by every other
// layer of the timing verifier: the switch-level delay models, the analog
// reference simulator, and the characterization library all draw their
// device constants from a single Params value so that model-versus-reference
// comparisons are apples-to-apples.
//
// Two era-appropriate parameter sets are provided: NMOS4 (a 4 µm nMOS
// process with depletion-mode pullups, the technology Crystal was first
// applied to) and CMOS3 (a 3 µm complementary process). Values are stated
// in SI units throughout: meters, ohms, farads, volts, seconds.
package tech

import (
	"errors"
	"fmt"
)

// Device enumerates the transistor kinds understood by the switch-level
// network. The set matches the Berkeley .sim alphabet: 'e'/'n' for
// enhancement n-channel, 'd' for depletion n-channel (used as a load),
// and 'p' for enhancement p-channel.
type Device int

const (
	// NEnh is an enhancement-mode n-channel transistor. It conducts when
	// its gate is high and is the workhorse of both nMOS and CMOS logic.
	NEnh Device = iota
	// NDep is a depletion-mode n-channel transistor. Its threshold is
	// negative, so with gate tied to source it conducts always; nMOS
	// logic uses it as a resistive pullup load.
	NDep
	// PEnh is an enhancement-mode p-channel transistor. It conducts when
	// its gate is low.
	PEnh
	// RWire is not a transistor at all: an explicit interconnect
	// resistor (polysilicon or diffusion wire). It always conducts, does
	// not attenuate signal strength, and carries its resistance on the
	// element itself rather than in the technology tables.
	RWire
	numDevices = 4
)

// String returns the .sim-style mnemonic for the device type.
func (d Device) String() string {
	switch d {
	case NEnh:
		return "e"
	case NDep:
		return "d"
	case PEnh:
		return "p"
	case RWire:
		return "r"
	}
	return fmt.Sprintf("Device(%d)", int(d))
}

// Devices lists the transistor device types, in a fixed order convenient
// for table-driven code (characterization sweeps, report columns). RWire
// is excluded: wires carry their own resistance and have no tables.
func Devices() []Device { return []Device{NEnh, NDep, PEnh} }

// Transition identifies the direction of a signal transition. Delay models
// are direction-sensitive because the pullup and pulldown structures of a
// stage generally have different effective resistances.
type Transition int

const (
	// Rise is a low-to-high transition.
	Rise Transition = iota
	// Fall is a high-to-low transition.
	Fall
)

// String returns "rise" or "fall".
func (t Transition) String() string {
	if t == Rise {
		return "rise"
	}
	return "fall"
}

// Opposite returns the inverse transition.
func (t Transition) Opposite() Transition {
	if t == Rise {
		return Fall
	}
	return Rise
}

// Params is a complete description of one MOS process for the purposes of
// switch-level timing analysis and level-1 circuit simulation.
//
// The switch-level side uses the effective resistances (ohms per square:
// multiply by L/W of a device to get its resistance) and the capacitance
// coefficients. The analog side uses the threshold voltages and
// transconductance parameters. Keeping both in one structure guarantees the
// reference simulator and the delay models describe the same process.
type Params struct {
	// Name identifies the parameter set in reports ("nmos-4u", "cmos-3u").
	Name string

	// Vdd is the positive supply voltage in volts. GND is 0 by convention.
	Vdd float64

	// VtN, VtP, VtDep are the threshold voltages (volts) of the
	// enhancement n-channel, enhancement p-channel, and depletion
	// n-channel devices. VtP and VtDep are negative.
	VtN, VtP, VtDep float64

	// RUp[d] is the effective resistance, in ohm-squares, of device d
	// when it is pulling its output node up toward Vdd, under a step
	// input. Multiply by L/W. A zero entry means the device cannot pull
	// up in this technology (e.g. NEnh pullups lose a threshold and are
	// heavily penalized rather than forbidden).
	RUp [numDevices]float64

	// RDown[d] is the effective pull-down resistance in ohm-squares of
	// device d under a step input.
	RDown [numDevices]float64

	// CGate is gate capacitance per unit area (F/m²).
	CGate float64

	// CDiffArea is source/drain junction capacitance per unit area (F/m²).
	CDiffArea float64

	// CDiffWidth is source/drain capacitance per meter of device width
	// (F/m), a crude stand-in for perimeter capacitance: each
	// source/drain terminal of a device of width W contributes
	// CDiffWidth·W in addition to any explicit node capacitance.
	CDiffWidth float64

	// DiffDepth is the assumed depth (meters) of the source/drain
	// diffusion strip: terminal area ≈ W·DiffDepth. Zero selects three
	// lambda.
	DiffDepth float64

	// CWire is the default wiring capacitance per node (farads) assumed
	// when a netlist supplies no explicit capacitance for a node. Real
	// extracted netlists carry explicit values; generated circuits use
	// this default plus device contributions.
	CWire float64

	// Lambda is the scale factor: meters per lambda. Generators express
	// geometry in lambda; the parser converts .sim centimicrons directly.
	Lambda float64

	// MinW, MinL are the minimum device width and length in meters
	// (2 lambda in both processes).
	MinW, MinL float64

	// KPn, KPp are the level-1 transconductance parameters (A/V²) for
	// n-channel and p-channel devices, as in SPICE's KP = µ·Cox.
	KPn, KPp float64

	// ChannelLambda is the channel-length-modulation coefficient (1/V)
	// used by the analog model (SPICE's LAMBDA). Small but nonzero to
	// aid Newton convergence.
	ChannelLambda float64
}

// NMOS4 returns parameters for a generic 4 µm nMOS process with
// depletion-mode loads, in the style of the processes Crystal was
// originally calibrated for (Mead–Conway era). The effective resistances
// follow the classic rules of thumb: a minimum enhancement pulldown is
// about 10 kΩ, a 4:1 depletion load about 40 kΩ.
func NMOS4() *Params {
	lambda := 2e-6 // 4 µm drawn gate => lambda = 2 µm
	return &Params{
		Name:  "nmos-4u",
		Vdd:   5.0,
		VtN:   1.0,
		VtP:   -1.0, // unused in nMOS but kept valid
		VtDep: -3.0,
		RUp: [numDevices]float64{
			NEnh: 30000, // enhancement pullup loses a threshold: poor
			NDep: 40000, // depletion load pulling up
			PEnh: 0,     // no p-channel devices in this process
		},
		RDown: [numDevices]float64{
			NEnh: 10000,
			NDep: 25000, // depletion device used as a pass element
			PEnh: 0,
		},
		CGate:         7.0e-4,  // F/m² (≈0.7 fF/µm²)
		CDiffArea:     3.0e-4,  // F/m²
		CDiffWidth:    4.0e-10, // F/m of width
		CWire:         20e-15,  // 20 fF default node load
		Lambda:        lambda,
		MinW:          2 * lambda,
		MinL:          2 * lambda,
		KPn:           25e-6,
		KPp:           0,
		ChannelLambda: 0.02,
	}
}

// CMOS3 returns parameters for a generic 3 µm complementary process. The
// p-channel effective resistance is roughly 2.5× the n-channel one,
// reflecting the hole/electron mobility ratio.
func CMOS3() *Params {
	lambda := 1.5e-6
	return &Params{
		Name:  "cmos-3u",
		Vdd:   5.0,
		VtN:   0.9,
		VtP:   -0.9,
		VtDep: -3.0, // depletion devices are unusual in CMOS but permitted
		RUp: [numDevices]float64{
			NEnh: 30000,
			NDep: 40000,
			PEnh: 22000,
		},
		RDown: [numDevices]float64{
			NEnh: 9000,
			NDep: 25000,
			PEnh: 60000, // p-device pulling down loses a threshold
		},
		CGate:         9.0e-4,
		CDiffArea:     3.3e-4,
		CDiffWidth:    3.5e-10,
		CWire:         15e-15,
		Lambda:        lambda,
		MinW:          2 * lambda,
		MinL:          2 * lambda,
		KPn:           30e-6,
		KPp:           12e-6,
		ChannelLambda: 0.02,
	}
}

// ByName returns the parameter set a flag or request names: "nmos-4u" (or
// "nmos") and "cmos-3u" (or "cmos").
func ByName(name string) (*Params, error) {
	switch name {
	case "nmos-4u", "nmos":
		return NMOS4(), nil
	case "cmos-3u", "cmos":
		return CMOS3(), nil
	}
	return nil, fmt.Errorf("unknown technology %q", name)
}

// Vt returns the threshold voltage for the given device type.
func (p *Params) Vt(d Device) float64 {
	switch d {
	case NEnh:
		return p.VtN
	case NDep:
		return p.VtDep
	case PEnh:
		return p.VtP
	}
	return 0
}

// KP returns the level-1 transconductance parameter for the device type.
// Depletion devices share the n-channel mobility.
func (p *Params) KP(d Device) float64 {
	if d == PEnh {
		return p.KPp
	}
	return p.KPn
}

// R returns the effective resistance in ohms of a device of type d with
// geometry w×l (meters) driving the given output transition. It returns
// +Inf-free large values only via the table; a zero table entry yields an
// error from Validate, so callers may assume R > 0 for permitted devices.
func (p *Params) R(d Device, tr Transition, w, l float64) float64 {
	sq := l / w
	if tr == Rise {
		return p.RUp[d] * sq
	}
	return p.RDown[d] * sq
}

// RSquare returns the per-square effective resistance for device d and
// output transition tr.
func (p *Params) RSquare(d Device, tr Transition) float64 {
	if tr == Rise {
		return p.RUp[d]
	}
	return p.RDown[d]
}

// GateCap returns the gate capacitance in farads of a device with geometry
// w×l meters.
func (p *Params) GateCap(w, l float64) float64 { return p.CGate * w * l }

// DiffCap returns the capacitance contributed by one source/drain terminal
// of a device of width w meters: a diffusion strip of area w·DiffDepth
// plus the width-proportional (perimeter-like) term.
func (p *Params) DiffCap(w float64) float64 {
	d := p.DiffDepth
	if d <= 0 {
		d = 3 * p.Lambda
	}
	return p.CDiffArea*w*d + p.CDiffWidth*w
}

// HasPChannel reports whether the process provides p-channel devices.
func (p *Params) HasPChannel() bool { return p.RUp[PEnh] > 0 || p.RDown[PEnh] > 0 }

// Validate checks internal consistency of the parameter set, returning a
// descriptive error for the first violation found. All constructors in
// this package produce parameter sets that validate cleanly; the check
// exists for user-supplied processes.
func (p *Params) Validate() error {
	switch {
	case p == nil:
		return errors.New("tech: nil Params")
	case p.Name == "":
		return errors.New("tech: missing Name")
	case p.Vdd <= 0:
		return fmt.Errorf("tech %s: Vdd must be positive, got %g", p.Name, p.Vdd)
	case p.VtN <= 0 || p.VtN >= p.Vdd:
		return fmt.Errorf("tech %s: VtN %g out of range (0, Vdd)", p.Name, p.VtN)
	case p.VtDep >= 0:
		return fmt.Errorf("tech %s: depletion threshold must be negative, got %g", p.Name, p.VtDep)
	case p.VtP >= 0:
		return fmt.Errorf("tech %s: VtP must be negative, got %g", p.Name, p.VtP)
	case p.CGate <= 0 || p.CDiffArea < 0 || p.CDiffWidth < 0:
		return fmt.Errorf("tech %s: capacitance coefficients must be non-negative (gate positive)", p.Name)
	case p.CWire < 0:
		return fmt.Errorf("tech %s: CWire must be non-negative", p.Name)
	case p.Lambda <= 0 || p.MinW <= 0 || p.MinL <= 0:
		return fmt.Errorf("tech %s: geometry scale factors must be positive", p.Name)
	case p.KPn <= 0:
		return fmt.Errorf("tech %s: KPn must be positive", p.Name)
	}
	if p.RDown[NEnh] <= 0 || p.RUp[NDep] <= 0 {
		return fmt.Errorf("tech %s: n-channel pulldown and depletion pullup resistances are mandatory", p.Name)
	}
	if p.HasPChannel() {
		if p.RUp[PEnh] <= 0 {
			return fmt.Errorf("tech %s: p-channel present but RUp[PEnh] is zero", p.Name)
		}
		if p.KPp <= 0 {
			return fmt.Errorf("tech %s: p-channel present but KPp is zero", p.Name)
		}
	}
	return nil
}
