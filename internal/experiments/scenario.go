// Package experiments implements the paper's evaluation: every
// reconstructed table and figure (E1–E9 in DESIGN.md) has a driver here,
// shared by cmd/delaycmp (human-readable tables) and the benchmark
// harness in the repository root.
//
// The central abstraction is the Scenario: one circuit, one input event,
// one observed output, with the surrounding pins held at fixed values. A
// scenario can be evaluated by the analog reference (transistor-level
// transient simulation) and by the timing verifier under any delay model;
// the comparison is the accuracy experiment.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// Scenario is one timed measurement on one circuit.
type Scenario struct {
	// Name labels the row in reports.
	Name string
	// Net is the circuit.
	Net *netlist.Network
	// Fixed pins nodes at constant values during the measurement.
	Fixed map[string]switchsim.Value
	// Input names the node receiving the transition; InTr its direction;
	// InSlope the transition (ramp) time in seconds (0 = near-step).
	Input   string
	InTr    tech.Transition
	InSlope float64
	// Output names the observed node; OutTr the expected transition.
	Output string
	OutTr  tech.Transition
	// Settle overrides the pre-event relaxation time of the analog run
	// (0 selects the 80 ns default); slow RC structures need more.
	Settle float64
	// X is the sweep coordinate the scenario samples (chain length,
	// fanout, slope…), copied into the resulting AccuracyRow; 0 for
	// non-sweep scenarios.
	X float64
}

// minRamp is the "near-step" input ramp used when InSlope is zero: the
// analog simulator needs a finite edge.
const minRamp = 50e-12

// settleTime is how long the analog circuit relaxes before the input event
// fires; generous relative to every fixture time constant.
const settleTime = 80e-9

// AnalogDelay measures the scenario on the analog reference: the 50%→50%
// delay from input to output and the output's 10–90% transition time.
func (s *Scenario) AnalogDelay() (delay50, outSlope float64, err error) {
	p := s.Net.Tech
	ramp := s.InSlope
	if ramp <= 0 {
		ramp = minRamp
	}
	v0, v1 := 0.0, p.Vdd
	if s.InTr == tech.Fall {
		v0, v1 = p.Vdd, 0
	}
	settle := s.Settle
	if settle <= 0 {
		settle = settleTime
	}
	inNode := s.Net.Lookup(s.Input)
	if inNode == nil {
		return 0, 0, fmt.Errorf("experiments %s: no input node %q", s.Name, s.Input)
	}
	outNode := s.Net.Lookup(s.Output)
	if outNode == nil {
		return 0, 0, fmt.Errorf("experiments %s: no output node %q", s.Name, s.Output)
	}
	drives := []analog.InputDrive{{Node: inNode, W: analog.Ramp(v0, v1, settle, ramp)}}
	for name, v := range s.Fixed {
		n := s.Net.Lookup(name)
		if n == nil {
			return 0, 0, fmt.Errorf("experiments %s: no fixed node %q", s.Name, name)
		}
		var level float64
		switch v {
		case switchsim.V1:
			level = p.Vdd
		case switchsim.V0:
			level = 0
		default:
			return 0, 0, fmt.Errorf("experiments %s: fixed node %s must be 0 or 1", s.Name, name)
		}
		drives = append(drives, analog.InputDrive{Node: n, W: analog.DC(level)})
	}
	c, nmap, err := analog.FromNetlist(s.Net, drives, nil)
	if err != nil {
		return 0, 0, err
	}
	stop := settle + ramp + 60*stageScale(s.Net)
	res, err := c.Tran(analog.TranOpts{
		Stop:   stop,
		Step:   stop / 9000,
		Record: []int{nmap[inNode.Index], nmap[outNode.Index]},
	})
	if err != nil {
		return 0, 0, fmt.Errorf("experiments %s: %w", s.Name, err)
	}
	d, err := res.Delay50(nmap[inNode.Index], nmap[outNode.Index],
		s.InTr == tech.Rise, s.OutTr == tech.Rise, 0, p.Vdd, settle/2)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments %s: %w", s.Name, err)
	}
	// Output slope between its actual levels around the event.
	vstart, _ := res.At(nmap[outNode.Index], settle)
	vend, _ := res.Final(nmap[outNode.Index])
	sl, err := res.TransitionTime(nmap[outNode.Index], vstart, vend, settle)
	if err != nil {
		sl = math.NaN() // delay is still valid; slope measurement failed
	}
	return d, sl, nil
}

// stageScale is a crude time constant for sizing simulation windows.
func stageScale(nw *netlist.Network) float64 {
	// Largest rule-of-thumb resistance times mean node capacitance.
	st := nw.Stats()
	meanC := st.TotalCap / float64(st.Nodes)
	return 50000 * meanC * 4
}

// ModelDelay runs the timing verifier over the scenario with the given
// model and returns the arrival time at the output (relative to the input
// event) and the propagated output slope.
func (s *Scenario) ModelDelay(m delay.Model) (delay50, outSlope float64, err error) {
	delay50, outSlope, _, err = s.modelDelay(m, nil)
	return delay50, outSlope, err
}

// modelDelay is ModelDelay with stage-database chaining: db (from a prior
// model's run over this same scenario) seeds the analyzer's stage cache,
// and the analyzer's database is returned for the next model. Stage
// enumeration depends only on the sensitization — not the delay model —
// so the models of one scenario use one database in turn.
func (s *Scenario) modelDelay(m delay.Model, db *stage.DB) (delay50, outSlope float64, dbOut *stage.DB, err error) {
	d := core.Directives{Fix: s.Fixed, Slope: s.InSlope}
	if d.Slope <= 0 {
		d.Slope = minRamp
	}
	if s.InTr == tech.Rise {
		d.Rise = []string{s.Input}
	} else {
		d.Fall = []string{s.Input}
	}
	a, err := d.New(s.Net, m, core.Options{DB: db})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("experiments %s: %w", s.Name, err)
	}
	if err := a.Run(); err != nil {
		return 0, 0, nil, fmt.Errorf("experiments %s: %w", s.Name, err)
	}
	out := s.Net.Lookup(s.Output)
	ev := a.Arrival(out, s.OutTr)
	if !ev.Valid {
		return 0, 0, nil, fmt.Errorf("experiments %s: no %s arrival at %s under model %s",
			s.Name, s.OutTr, s.Output, m.Name())
	}
	return ev.T, ev.Slope, a.StageDB(), nil
}
