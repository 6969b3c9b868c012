// Human-readable reporting of analysis results, in the spirit of
// Crystal's critical-path listings.
package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// timeUnit renders seconds as nanoseconds with sensible precision.
func timeUnit(t float64) string {
	return fmt.Sprintf("%.3fns", t*1e9)
}

// WriteReport prints the k worst critical paths, each as an indented
// chain from seeding input to endpoint with per-hop stage detail.
func (a *Analyzer) WriteReport(w io.Writer, k int) error {
	paths := a.CriticalPaths(k)
	fmt.Fprintf(w, "timing report: %s, model %s, %d stage evaluations\n",
		a.Net.Name, a.Model.Name(), a.StagesEvaluated())
	if a.Truncated {
		fmt.Fprintf(w, "warning: stage enumeration truncated; times are lower bounds\n")
	}
	if len(a.Unbounded) > 0 {
		fmt.Fprintf(w, "warning: %d node(s) hit the feedback guard:", len(a.Unbounded))
		for i, n := range a.Unbounded {
			if i == 4 {
				fmt.Fprintf(w, " …")
				break
			}
			fmt.Fprintf(w, " %s", n.Name)
		}
		fmt.Fprintln(w)
	}
	if len(paths) == 0 {
		fmt.Fprintln(w, "no arrivals (did any seeded input reach logic?)")
		return nil
	}
	for i, p := range paths {
		end := p.End()
		fmt.Fprintf(w, "\npath %d: %s %s at %s (slope %s), %d hops\n",
			i+1, end.Node.Name, end.Tr, timeUnit(end.Event.T), timeUnit(end.Event.Slope), len(p.Hops))
		for _, h := range p.Hops {
			if h.Event.Via == nil {
				fmt.Fprintf(w, "  %-20s %-4s %-10s (input)\n", h.Node.Name, h.Tr, timeUnit(h.Event.T))
				continue
			}
			fmt.Fprintf(w, "  %-20s %-4s %-10s via %s\n",
				h.Node.Name, h.Tr, timeUnit(h.Event.T), h.Event.Via.Format(a.Net))
		}
	}
	return nil
}

// FormatReanalyzeStatus renders one Reanalyze outcome as the status line
// the designer loop prints at each `run` barrier — honest about full
// fallbacks (and why) versus incremental updates. prog prefixes the line
// ("crystal" for the CLI, "crystald" for the service) so the two surfaces
// stay byte-comparable apart from their name.
func FormatReanalyzeStatus(prog string, stats *ReanalyzeStats) string {
	if stats.Full {
		return fmt.Sprintf("%s: re-analysis (full: %s; epoch %d, %d stages evaluated)",
			prog, stats.Reason, stats.Epoch, stats.StagesEvaluated)
	}
	return fmt.Sprintf("%s: re-analysis (incremental: %d/%d nodes dirty, %.0f%%; epoch %d, %d stages evaluated)",
		prog, stats.DirtyNodes, stats.TotalNodes, 100*stats.DirtyFrac,
		stats.Epoch, stats.StagesEvaluated)
}

// MaxArrival returns the latest valid event over the whole network — the
// single number usually quoted as "the critical path delay".
func (a *Analyzer) MaxArrival() (Event, *Path) {
	paths := a.CriticalPaths(1)
	if len(paths) == 0 {
		return Event{}, nil
	}
	return paths[0].End().Event, paths[0]
}

// WorstArrival returns the latest valid event over every non-rail,
// non-input node — not just the watched outputs — with its traced path.
// Clocked analyses use it because a phase's activity may be entirely
// internal (latch inputs waiting for the next phase).
func (a *Analyzer) WorstArrival() (Event, *Path) {
	var worst Event
	var node *netlist.Node
	var wtr tech.Transition
	for _, n := range a.Net.Nodes {
		if n.IsRail() || n.Kind == netlist.KindInput {
			continue
		}
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if ev := a.Arrival(n, tr); ev.Valid && (!worst.Valid || ev.T > worst.T) {
				worst, node, wtr = ev, n, tr
			}
		}
	}
	if node == nil {
		return Event{}, nil
	}
	return worst, a.Trace(node, wtr)
}

// Slack is one endpoint's margin against a deadline (a clock period or
// phase boundary): positive means the signal settles in time.
type Slack struct {
	Node  *netlist.Node
	Tr    tech.Transition
	Event Event
	Slack float64
}

// Slacks returns the margin of every watched output (every non-rail,
// non-input node if none are marked) against the deadline, most negative
// first. This is how a Crystal user checked a design against its clock.
func (a *Analyzer) Slacks(deadline float64) []Slack {
	var out []Slack
	for _, n := range a.endpoints() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			ev := a.Arrival(n, tr)
			if !ev.Valid {
				continue
			}
			out = append(out, Slack{Node: n, Tr: tr, Event: ev, Slack: deadline - ev.T})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slack != out[j].Slack {
			return out[i].Slack < out[j].Slack
		}
		if out[i].Node.Name != out[j].Node.Name {
			return out[i].Node.Name < out[j].Node.Name
		}
		return out[i].Tr < out[j].Tr
	})
	return out
}

// WriteSlackReport prints the k worst slacks against the deadline and
// returns the number of violations (negative slacks).
func (a *Analyzer) WriteSlackReport(w io.Writer, deadline float64, k int) int {
	slacks := a.Slacks(deadline)
	violations := 0
	for _, s := range slacks {
		if s.Slack < 0 {
			violations++
		}
	}
	fmt.Fprintf(w, "slack report: deadline %s, %d endpoint(s), %d violation(s)\n",
		timeUnit(deadline), len(slacks), violations)
	if k > 0 && len(slacks) > k {
		slacks = slacks[:k]
	}
	for _, s := range slacks {
		mark := " "
		if s.Slack < 0 {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s %-20s %-4s arrives %-10s slack %s\n",
			mark, s.Node.Name, s.Tr, timeUnit(s.Event.T), timeUnit(s.Slack))
	}
	return violations
}
