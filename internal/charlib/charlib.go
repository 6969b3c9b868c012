// Package charlib characterizes switch-level delay tables against the
// analog reference simulator, reproducing the paper's workflow: for each
// device type and output transition, a small fixture circuit is driven
// with input ramps of increasing duration; the measured 50% delays define
// the step-input effective resistance and the slope-ratio multiplier
// curves the Slope model interpolates at analysis time.
//
// Fixtures (all capacitively loaded with a known C, so R = t50/C):
//
//	NEnh fall — discharge: cap at Vdd, n-device to GND, gate ramps up.
//	NEnh rise — pass-high: cap at 0, n-device to Vdd, gate ramps up
//	            (output saturates a threshold below Vdd, as in silicon).
//	NDep rise — nMOS inverter: 4:1 depletion pullup vs minimum pulldown,
//	            input ramps down, output rises. The pulldown fight is
//	            part of the curve, as it is in every real nMOS gate.
//	NDep fall — depletion pass device discharging the load (step only:
//	            no gate event exists for an always-on device).
//	PEnh rise — CMOS inverter: input ramps down, p-device charges load.
//	PEnh fall — pass-low: cap at Vdd, p-device to GND, gate ramps down
//	            (output saturates a threshold above GND).
//
// Characterize runs the sweep. Its output at default Options for the
// built-in technologies is committed as tables_*.go, which Default returns
// without simulating anything; cmd/characterize's golden test fails when
// the committed files no longer match a fresh sweep.
package charlib

//go:generate sh -c "go run repro/cmd/characterize -tech nmos-4u -format go > tables_nmos4u.go.tmp && mv tables_nmos4u.go.tmp tables_nmos4u.go"
//go:generate sh -c "go run repro/cmd/characterize -tech cmos-3u -format go > tables_cmos3u.go.tmp && mv tables_cmos3u.go.tmp tables_cmos3u.go"

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/delay"
	"repro/internal/tech"
)

// Options tunes a characterization run.
type Options struct {
	// Ratios are the slope-ratio sample points; the default is
	// {0, 0.5, 1, 2, 4, 8, 16, 32}. A leading 0 is added if missing.
	Ratios []float64
	// Load is the fixture load capacitance in farads (default 100 fF).
	Load float64
}

func (o Options) fill() Options {
	if len(o.Ratios) == 0 {
		o.Ratios = []float64{0, 0.5, 1, 2, 4, 8, 16, 32}
	}
	if o.Ratios[0] != 0 {
		o.Ratios = append([]float64{0}, o.Ratios...)
	}
	if o.Load <= 0 {
		o.Load = 100e-15
	}
	return o
}

// fixture describes one measurable configuration.
type fixture struct {
	dev tech.Device
	tr  tech.Transition
	// build wires the circuit for an input ramp of duration tin starting
	// at t0, and returns (input node, output node, sign of output move).
	build func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (in, out int, rising bool)
	// wOverL of the characterized device, to convert measured R to Ω/sq.
	wOverL float64
}

func fixtures(p *tech.Params) []fixture {
	fs := []fixture{
		{
			dev: tech.NEnh, tr: tech.Fall, wOverL: 1,
			build: func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (int, int, bool) {
				// Full inverter, not a bare pulldown: every real gate's
				// pulldown fights its load device during the input
				// transition, and that fight is what makes the slope
				// curve monotone at large ratios.
				in, out, vdd := c.Node("in"), c.Node("out"), c.Node("vdd")
				c.AddVSource(vdd, 0, analog.DC(p.Vdd))
				c.AddVSource(in, 0, analog.Ramp(0, p.Vdd, t0, tin))
				c.AddMOS(tech.NEnh, out, in, 0, p.MinW, p.MinL, p)
				if p.HasPChannel() {
					c.AddMOS(tech.PEnh, out, in, vdd, 2*p.MinW, p.MinL, p)
				} else {
					c.AddMOS(tech.NDep, vdd, out, out, p.MinW, 4*p.MinL, p)
				}
				c.AddCapacitor(out, 0, load, p.Vdd)
				return in, out, false
			},
		},
		{
			dev: tech.NEnh, tr: tech.Rise, wOverL: 1,
			build: func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (int, int, bool) {
				in, out, vdd := c.Node("in"), c.Node("out"), c.Node("vdd")
				c.AddVSource(vdd, 0, analog.DC(p.Vdd))
				c.AddVSource(in, 0, analog.Ramp(0, p.Vdd, t0, tin))
				c.AddMOS(tech.NEnh, vdd, in, out, p.MinW, p.MinL, p)
				c.AddCapacitor(out, 0, load, 0)
				return in, out, true
			},
		},
		{
			dev: tech.NDep, tr: tech.Rise, wOverL: 0.25,
			build: func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (int, int, bool) {
				in, out, vdd := c.Node("in"), c.Node("out"), c.Node("vdd")
				c.AddVSource(vdd, 0, analog.DC(p.Vdd))
				c.AddVSource(in, 0, analog.Ramp(p.Vdd, 0, t0, tin))
				c.AddMOS(tech.NEnh, out, in, 0, p.MinW, p.MinL, p)
				c.AddMOS(tech.NDep, vdd, out, out, p.MinW, 4*p.MinL, p)
				// Start at the inverter's logic-low level; the settle
				// phase before t0 pins it there anyway.
				c.AddCapacitor(out, 0, load, 0.3)
				return in, out, true
			},
		},
		{
			dev: tech.NDep, tr: tech.Fall, wOverL: 1,
			build: func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (int, int, bool) {
				in, out := c.Node("in"), c.Node("out")
				// Depletion pass device: gate grounded, always on.
				// Input steps low; the device drags the load down.
				c.AddVSource(in, 0, analog.Ramp(p.Vdd, 0, t0, tin))
				c.AddMOS(tech.NDep, in, 0, out, p.MinW, p.MinL, p)
				c.AddCapacitor(out, 0, load, p.Vdd)
				return in, out, false
			},
		},
	}
	if p.HasPChannel() {
		fs = append(fs,
			fixture{
				dev: tech.PEnh, tr: tech.Rise, wOverL: 2,
				build: func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (int, int, bool) {
					in, out, vdd := c.Node("in"), c.Node("out"), c.Node("vdd")
					c.AddVSource(vdd, 0, analog.DC(p.Vdd))
					c.AddVSource(in, 0, analog.Ramp(p.Vdd, 0, t0, tin))
					c.AddMOS(tech.NEnh, out, in, 0, p.MinW, p.MinL, p)
					c.AddMOS(tech.PEnh, out, in, vdd, 2*p.MinW, p.MinL, p)
					c.AddCapacitor(out, 0, load, 0)
					return in, out, true
				},
			},
			fixture{
				dev: tech.PEnh, tr: tech.Fall, wOverL: 2,
				build: func(c *analog.Circuit, p *tech.Params, load, t0, tin float64) (int, int, bool) {
					in, out := c.Node("in"), c.Node("out")
					c.AddVSource(in, 0, analog.Ramp(p.Vdd, 0, t0, tin))
					c.AddMOS(tech.PEnh, out, in, 0, 2*p.MinW, p.MinL, p)
					c.AddCapacitor(out, 0, load, p.Vdd)
					return in, out, false
				},
			},
		)
	}
	return fs
}

// measure runs one fixture at one input ramp duration and returns the 50%
// delay from the input's mid-crossing (or ramp start for a step) to the
// output's mid-crossing, plus the output's 10–90% transition time.
func measure(fx fixture, p *tech.Params, load, tin, guessTau float64) (t50, t1090 float64, err error) {
	c := analog.NewCircuit()
	// Start the event after a settle period so initial conditions relax.
	t0 := 4 * guessTau
	in, out, rising := fx.build(c, p, load, t0, tin)
	stop := t0 + tin + 40*guessTau
	res, err := c.Tran(analog.TranOpts{
		Stop:   stop,
		Step:   stop / 6000,
		Record: []int{in, out},
	})
	if err != nil {
		return 0, 0, fmt.Errorf("charlib %s/%s tin=%g: %w", fx.dev, fx.tr, tin, err)
	}
	mid := p.Vdd / 2
	tref := t0
	if tin > 0 {
		inRising := true
		v0, _ := res.At(in, 0)
		if v0 > mid {
			inRising = false
		}
		tref, err = res.Crossing(in, mid, inRising, 0)
		if err != nil {
			return 0, 0, fmt.Errorf("charlib %s/%s: input crossing: %w", fx.dev, fx.tr, err)
		}
	}
	tcross, err := res.Crossing(out, mid, rising, t0)
	if err != nil {
		return 0, 0, fmt.Errorf("charlib %s/%s tin=%g: output crossing: %w", fx.dev, fx.tr, tin, err)
	}
	t50 = tcross - tref

	// Output transition time between its actual initial and final levels
	// (pass configurations do not reach the full rail).
	vstart, _ := res.At(out, t0)
	vend, _ := res.Final(out)
	t1090, err = res.TransitionTime(out, vstart, vend, t0)
	if err != nil {
		return t50, 0, fmt.Errorf("charlib %s/%s tin=%g: transition: %w", fx.dev, fx.tr, tin, err)
	}
	return t50, t1090, nil
}

// Characterize measures delay tables for technology p against the analog
// reference. The returned tables have Source == "characterized".
func Characterize(p *tech.Params, opt Options) (*delay.Tables, error) {
	opt = opt.fill()
	tb := &delay.Tables{Source: "characterized", Tech: p.Name}
	for _, fx := range fixtures(p) {
		// Rough scale for simulation windows from the rule-of-thumb R.
		guessTau := p.RSquare(fx.dev, fx.tr) / fx.wOverL * opt.Load
		if guessTau <= 0 {
			guessTau = 10e-9
		}
		// Step-input baseline.
		t50step, t1090step, err := measure(fx, p, opt.Load, 0, guessTau)
		if err != nil {
			return nil, err
		}
		if t50step <= 0 {
			return nil, fmt.Errorf("charlib %s/%s: non-positive step delay %g", fx.dev, fx.tr, t50step)
		}
		// Effective resistance of the fixture device: R = t50/C, and
		// Ω/sq = R·(W/L).
		tb.RSquare[fx.dev][fx.tr] = t50step / opt.Load * fx.wOverL

		curve := delay.Curve{}
		for _, ratio := range opt.Ratios {
			tin := ratio * t50step
			t50, t1090, err := measure(fx, p, opt.Load, tin, guessTau)
			if err != nil {
				return nil, err
			}
			curve.Ratio = append(curve.Ratio, ratio)
			curve.RMult = append(curve.RMult, t50/t50step)
			curve.TFactor = append(curve.TFactor, t1090/t50step)
		}
		// Normalize the step point exactly to 1 (it is by construction,
		// modulo measurement noise).
		curve.RMult[0] = 1
		if t1090step > 0 {
			curve.TFactor[0] = t1090step / t50step
		}
		// Emit each curve as its running maximum over ratio. A measured
		// dip (up to 3 %, on the first segment) would make a stage faster
		// as its input slows; raising it to the plateau keeps every delay
		// and output slope non-decreasing in input slope, the conservative
		// side for a max-side verifier.
		for i := 1; i < len(curve.Ratio); i++ {
			curve.RMult[i] = max(curve.RMult[i], curve.RMult[i-1])
			curve.TFactor[i] = max(curve.TFactor[i], curve.TFactor[i-1])
		}
		tb.Curves[fx.dev][fx.tr] = curve
	}
	// Devices with no fixture (e.g. p-channel in an nMOS process) keep
	// zero resistance entries, matching the technology's capabilities.
	if err := tb.Validate(); err != nil {
		return nil, fmt.Errorf("charlib: produced invalid tables: %w", err)
	}
	return tb, nil
}

// committed pairs each generated table with the parameter set it
// characterizes.
var committed = []struct {
	p  *tech.Params
	tb *delay.Tables
}{
	{tech.NMOS4(), &tablesnmos4u},
	{tech.CMOS3(), &tablescmos3u},
}

// Default returns the committed characterization of p: Characterize's
// output at default Options, generated once per technology. Every call
// returns the same pointer. It is an error if no tables are committed for
// p.Name, or if p differs from the built-in parameter set of that name;
// such parameters need their own Characterize run.
func Default(p *tech.Params) (*delay.Tables, error) {
	for _, c := range committed {
		if c.p.Name != p.Name {
			continue
		}
		if *p != *c.p {
			return nil, fmt.Errorf("charlib: parameters of %s differ from the built-in set the committed tables characterize", p.Name)
		}
		return c.tb, nil
	}
	return nil, fmt.Errorf("charlib: no committed tables for technology %q", p.Name)
}

// Tables returns the delay tables a front end names: "char" (Default's
// committed characterization) or "analytic" (delay.AnalyticTables).
func Tables(p *tech.Params, name string) (*delay.Tables, error) {
	switch name {
	case "char":
		return Default(p)
	case "analytic":
		return delay.AnalyticTables(p), nil
	}
	return nil, fmt.Errorf("unknown tables %q (want char or analytic)", name)
}
