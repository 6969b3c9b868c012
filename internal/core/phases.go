// Multi-phase clocked analysis: the way Crystal was actually used on
// two-phase nMOS chips. Each phase transition toggles the clock nets;
// the verifier times the logic that evaluates during the phase; latched
// state (settled node values) carries into the next phase.
package core

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// Phase describes one clock phase of a multi-phase schedule.
type Phase struct {
	// Name labels the phase in reports ("phi1", "phi2").
	Name string
	// High and Low list the clock nodes at each level during the phase.
	// At the phase boundary, a clock that changes level receives a
	// worst-case transition event; unchanged clocks are held fixed.
	High, Low []*netlist.Node
	// Duration is the phase length in seconds; arrivals beyond it are
	// violations.
	Duration float64
	// Slope is the clock edge transition time (0 = analyzer default).
	Slope float64
}

// PhaseResult is the outcome of one phase's analysis.
type PhaseResult struct {
	Phase      Phase
	Analyzer   *Analyzer
	Worst      Event
	WorstPath  *Path
	Violations int
}

// ClockedAnalysis runs a sequence of phases over one network.
type ClockedAnalysis struct {
	Net    *netlist.Network
	Model  delay.Model
	Opts   Options
	Phases []Phase
	// Fixed pins non-clock control inputs to 0 or 1 for the whole schedule.
	Fixed map[string]switchsim.Value
}

// clockLevel returns the level of node n in phase p, or -1 if n is not a
// clock of that phase.
func clockLevel(p Phase, n *netlist.Node) int {
	for _, h := range p.High {
		if h == n {
			return 1
		}
	}
	for _, l := range p.Low {
		if l == n {
			return 0
		}
	}
	return -1
}

// Run executes the schedule: for each phase, clocks that change level
// from the previous phase get transition events at t=0, unchanged clocks
// are fixed, and the settled node values of the previous phase seed the
// network state. The previous phase's *last* state is established by a
// functional settle, not by the timing analysis (timing is worst-case;
// state is the user-visible vector behaviour).
func (ca *ClockedAnalysis) Run() ([]PhaseResult, error) {
	if len(ca.Phases) == 0 {
		return nil, fmt.Errorf("core: no phases given")
	}
	nw := ca.Net
	pins, err := Directives{Fix: ca.Fixed}.Resolve(nw)
	if err != nil {
		return nil, err
	}
	// Functional tracker: maintains the latched state across phases.
	tracker := switchsim.New(nw)
	for _, p := range pins.Fix {
		if err := tracker.SetInput(p.Node, p.Value); err != nil {
			return nil, err
		}
	}
	// Establish the state before the first phase: clocks at their
	// pre-phase-0 levels, i.e. the levels of the LAST phase (a cyclic
	// schedule), so the first boundary sees real transitions.
	last := ca.Phases[len(ca.Phases)-1]
	for _, n := range last.High {
		if err := tracker.SetInput(n, switchsim.V1); err != nil {
			return nil, err
		}
	}
	for _, n := range last.Low {
		if err := tracker.SetInput(n, switchsim.V0); err != nil {
			return nil, err
		}
	}
	tracker.Settle()

	// Pass 1 (serial): walk the schedule with the functional tracker. The
	// latched state is inherently sequential — each phase's snapshot
	// depends on the previous settle — but capturing it is cheap. What
	// falls out per phase is a self-contained setup: the state snapshot,
	// the clocks held fixed, and the clocks that fire.
	type phaseSetup struct {
		ph       Phase
		snapshot []switchsim.Value
		fixes    []Pin
		rising   []*netlist.Node
	}
	setups := make([]phaseSetup, 0, len(ca.Phases))
	prev := last
	for _, ph := range ca.Phases {
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("core: phase %s needs a positive duration", ph.Name)
		}
		su := phaseSetup{ph: ph, snapshot: tracker.Snapshot()}
		// Clock handling: a clock rising at the boundary is the phase's
		// evaluation trigger and gets a Rise event; every other clock —
		// unchanged or falling — is held at its phase level, so pass
		// gates controlled by the low clock are definitely off during
		// the phase (non-overlapping two-phase discipline; the same
		// directive a Crystal user gave).
		clocks := append(append([]*netlist.Node{}, ph.High...), ph.Low...)
		for _, n := range clocks {
			now := clockLevel(ph, n)
			before := clockLevel(prev, n)
			if before == -1 {
				before = now // not scheduled last phase: assume held
			}
			if now == before || now == 0 {
				su.fixes = append(su.fixes, Pin{n, switchsim.FromBool(now == 1)})
				continue
			}
			if n.Kind != netlist.KindInput {
				return nil, fmt.Errorf("core: clock %s must be marked as an input", n.Name)
			}
			su.rising = append(su.rising, n)
		}
		setups = append(setups, su)

		// Advance the functional state: apply the new clock levels and
		// settle for the next boundary.
		for _, n := range ph.High {
			if err := tracker.SetInput(n, switchsim.V1); err != nil {
				return nil, err
			}
		}
		for _, n := range ph.Low {
			if err := tracker.SetInput(n, switchsim.V0); err != nil {
				return nil, err
			}
		}
		tracker.Settle()
		prev = ph
	}

	// Pass 2 (parallel): with the setups captured, the per-phase timing
	// analyses are independent and fan out over the pool. Each phase has
	// its own sensitization (different clock levels), so no stage database
	// is shared between them; each inner analyzer runs serially.
	out := make([]PhaseResult, len(setups))
	err = RunMany(len(setups), func(i int) error {
		su := setups[i]
		a := New(nw, ca.Model, ca.Opts)
		// Carry the settled state into the analyzer's sensitization.
		a.initial = su.snapshot
		for _, p := range slices.Concat(pins.Fix, su.fixes) {
			a.SetFixed(p.Node, p.Value)
		}
		for _, n := range su.rising {
			if err := a.SetInputEvent(n, tech.Rise, 0, su.ph.Slope); err != nil {
				return err
			}
		}
		if err := a.Run(); err != nil {
			return fmt.Errorf("phase %s: %w", su.ph.Name, err)
		}
		worst, path := a.WorstArrival()
		res := PhaseResult{Phase: su.ph, Analyzer: a, Worst: worst, WorstPath: path}
		// Violations count every node that fails to settle within the
		// phase: internal latch inputs matter as much as chip outputs.
		for _, n := range nw.Nodes {
			if n.IsRail() || n.Kind == netlist.KindInput {
				continue
			}
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				if ev := a.Arrival(n, tr); ev.Valid && ev.T > su.ph.Duration {
					res.Violations++
				}
			}
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WritePhaseReport renders the schedule outcome.
func WritePhaseReport(w io.Writer, results []PhaseResult) {
	for _, r := range results {
		status := "ok"
		if r.Violations > 0 {
			status = fmt.Sprintf("%d violation(s)", r.Violations)
		}
		worst := "no arrivals"
		if r.Worst.Valid {
			worst = fmt.Sprintf("worst %s at %s", r.WorstPath.End().Node.Name, timeUnit(r.Worst.T))
		}
		fmt.Fprintf(w, "phase %-8s duration %-10s %s — %s\n",
			r.Phase.Name, timeUnit(r.Phase.Duration), worst, status)
	}
}
