// Package erc implements the electrical rule checks that accompanied the
// switch-level timing work: the static sanity rules Crystal and its
// contemporaries applied before timing a chip. Violations here usually
// explain "impossible" timing results, so cmd/crystal exposes the checker
// behind a flag.
//
// Rules:
//
//	ratio           — nMOS ratioed-logic pullup/pulldown ratio too small
//	                  (the output low level rises and successors slow down
//	                  or misswitch)
//	threshold-drop  — a node that can only be driven high through
//	                  n-channel pass devices (reaching Vdd−Vt) gates
//	                  further pass devices, compounding the drop
//	floating        — a node that gates transistors but can never be
//	                  driven to either rail
//	static-short    — an always-on (depletion) path connects Vdd to GND
//	charge-sharing  — a precharged node can lose too much of its charge
//	                  to discharged capacitance in its channel group
package erc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// Severity grades findings.
type Severity int

const (
	// Warning marks questionable but possibly intended structures.
	Warning Severity = iota
	// Error marks structures that cannot work as drawn.
	Error
)

// String renders the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one rule violation.
type Finding struct {
	Rule     string
	Severity Severity
	// Node is the subject net (may be nil for device-level findings).
	Node *netlist.Node
	// Detail is a human-readable explanation with the numbers that
	// triggered the rule.
	Detail string
}

// String renders the finding on one line.
func (f Finding) String() string {
	where := "-"
	if f.Node != nil {
		where = f.Node.Name
	}
	return fmt.Sprintf("%-7s %-15s %-12s %s", f.Severity, f.Rule, where, f.Detail)
}

// Options tunes rule thresholds.
type Options struct {
	// MinRatio is the minimum acceptable pullup/pulldown resistance
	// ratio for nMOS ratioed gates (default 3.5; the classic rule is 4).
	MinRatio float64
	// MaxChargeShare is the largest acceptable fraction of a precharged
	// node's charge lost to its channel group (default 0.30).
	MaxChargeShare float64
	// Stage bounds the path searches.
	Stage stage.Options
}

func (o Options) fill() Options {
	if o.MinRatio <= 0 {
		o.MinRatio = 3.5
	}
	if o.MaxChargeShare <= 0 {
		o.MaxChargeShare = 0.30
	}
	return o
}

// Check runs every rule and returns findings sorted by severity then node
// name (deterministic for golden tests).
func Check(nw *netlist.Network, opt Options) []Finding {
	opt = opt.fill()
	// One stage database serves every path query of the check.
	db := stage.NewDB(nw, opt.Stage)
	var out []Finding
	out = append(out, checkStaticShorts(nw)...)
	out = append(out, checkFloating(nw, db)...)
	out = append(out, checkRatios(nw, db, opt)...)
	out = append(out, checkThresholdDrops(nw, db)...)
	out = append(out, checkChargeSharing(nw, opt)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		ni, nj := "", ""
		if out[i].Node != nil {
			ni = out[i].Node.Name
		}
		if out[j].Node != nil {
			nj = out[j].Node.Name
		}
		return ni < nj
	})
	return out
}

// checkStaticShorts finds always-on conduction paths between the rails.
func checkStaticShorts(nw *netlist.Network) []Finding {
	// BFS from Vdd through always-on devices only.
	seen := make(map[*netlist.Node]bool)
	q := []*netlist.Node{nw.Vdd()}
	seen[nw.Vdd()] = true
	var out []Finding
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		for _, t := range n.Terms {
			if !t.AlwaysOn() {
				continue
			}
			// A depletion device with gate tied to source is a load:
			// it conducts, so it still propagates the search.
			o := t.Other(n)
			if o == nil || seen[o] {
				continue
			}
			if o.Kind == netlist.KindGnd {
				out = append(out, Finding{
					Rule: "static-short", Severity: Error, Node: n,
					Detail: fmt.Sprintf("always-on path reaches GND through %s", t),
				})
				continue
			}
			seen[o] = true
			if !o.IsSource() {
				q = append(q, o)
			}
		}
	}
	return out
}

// checkFloating flags nodes that gate transistors but have no possible
// driving path in either direction.
func checkFloating(nw *netlist.Network, db *stage.DB) []Finding {
	var out []Finding
	for _, n := range nw.Nodes {
		if n.IsSource() || len(n.Gates) == 0 {
			continue
		}
		if len(db.Release(n.Index).Stages) == 0 {
			out = append(out, Finding{
				Rule: "floating", Severity: Error, Node: n,
				Detail: fmt.Sprintf("gates %d transistor(s) but no stage can drive it", len(n.Gates)),
			})
		}
	}
	return out
}

// checkRatios verifies nMOS ratioed gates: for every node with a
// depletion pullup, the pullup resistance must sufficiently exceed the
// strongest pulldown path.
func checkRatios(nw *netlist.Network, db *stage.DB, opt Options) []Finding {
	var out []Finding
	if nw.Tech.HasPChannel() {
		return nil // complementary logic is not ratioed
	}
	for _, n := range nw.Nodes {
		if n.IsSource() {
			continue
		}
		// Find a depletion load: dep device between n and Vdd (a wire
		// resistor to Vdd is not a logic load).
		var load *netlist.Trans
		for _, t := range n.Terms {
			if t.Type == tech.NDep && (t.Other(n) == nw.Vdd()) {
				load = t
				break
			}
		}
		if load == nil {
			continue
		}
		rUp := nw.Tech.R(load.Type, tech.Rise, load.W, load.L)
		// Strongest (minimum-resistance) pulldown path.
		best := 0.0
		var bestStage *stage.Stage
		falls := db.Release(n.Index).Stages
		for i := range falls {
			st := &falls[i]
			if st.Transition() != tech.Fall || nw.Nodes[st.Source()].Kind != netlist.KindGnd {
				continue
			}
			r := st.SeriesR(nw)
			if bestStage == nil || r < best {
				best, bestStage = r, st
			}
		}
		if bestStage == nil {
			continue
		}
		ratio := rUp / best
		if ratio < opt.MinRatio {
			out = append(out, Finding{
				Rule: "ratio", Severity: Warning, Node: n,
				Detail: fmt.Sprintf("pullup/pulldown ratio %.2f < %.2f (pullup %.0fΩ, strongest pulldown %.0fΩ via %s)",
					ratio, opt.MinRatio, rUp, best, bestStage.Format(nw)),
			})
		}
	}
	return out
}

// degradedHigh reports whether every way to drive node n high passes
// through an n-channel enhancement device (losing a threshold).
func degradedHigh(nw *netlist.Network, db *stage.DB, n *netlist.Node) bool {
	rises, stages := 0, db.Release(n.Index).Stages
	for i := range stages {
		st := &stages[i]
		if st.Transition() != tech.Rise {
			continue
		}
		rises++
		clean := true
		for _, e := range st.Path() {
			if nw.Trans[e.Trans].Type == tech.NEnh {
				clean = false
				break
			}
		}
		if clean {
			return false // some restoring path exists
		}
	}
	return rises > 0 // no rise at all is the floating rule's finding
}

// checkThresholdDrops flags degraded-high nodes that gate n-channel pass
// devices whose channels must in turn pass a high level: the second
// device's output only reaches Vdd − 2Vt.
func checkThresholdDrops(nw *netlist.Network, db *stage.DB) []Finding {
	var out []Finding
	for _, n := range nw.Nodes {
		if n.IsSource() || len(n.Gates) == 0 {
			continue
		}
		if !degradedHigh(nw, db, n) {
			continue
		}
		// Degraded node gating an n-enh whose channel is not a simple
		// pulldown (neither terminal is GND) is passing data: the
		// compounded drop rule.
		for _, t := range n.Gates {
			if t.Type != tech.NEnh {
				continue
			}
			if t.A.Kind == netlist.KindGnd || t.B.Kind == netlist.KindGnd {
				continue // pulldown use: a weak gate is a ratio problem, not a drop
			}
			out = append(out, Finding{
				Rule: "threshold-drop", Severity: Warning, Node: n,
				Detail: fmt.Sprintf("level Vdd−Vt gates pass device %s; its output high is degraded twice", t),
			})
			break
		}
	}
	return out
}

// checkChargeSharing estimates, for each precharged node, the worst-case
// fraction of its charge redistributed into its (possibly conducting)
// channel group during evaluation.
func checkChargeSharing(nw *netlist.Network, opt Options) []Finding {
	var out []Finding
	for _, n := range nw.Nodes {
		if !n.Precharged || n.IsSource() {
			continue
		}
		own := nw.NodeCap(n)
		if own <= 0 {
			continue
		}
		// Worst case: every channel neighbor reachable without passing
		// a rail shares its capacitance.
		sharedCap := 0.0
		seen := map[*netlist.Node]bool{n: true}
		q := []*netlist.Node{n}
		for len(q) > 0 {
			cur := q[0]
			q = q[1:]
			for _, t := range cur.Terms {
				o := t.Other(cur)
				if o == nil || seen[o] {
					continue
				}
				seen[o] = true
				if o.IsSource() {
					continue // a rail connection is a drive, not sharing
				}
				sharedCap += nw.NodeCap(o)
				q = append(q, o)
			}
		}
		frac := sharedCap / (own + sharedCap)
		if frac > opt.MaxChargeShare {
			out = append(out, Finding{
				Rule: "charge-sharing", Severity: Warning, Node: n,
				Detail: fmt.Sprintf("worst case loses %.0f%% of charge to %.1f fF of group capacitance (node %.1f fF)",
					frac*100, sharedCap*1e15, own*1e15),
			})
		}
	}
	return out
}

// Format renders findings as an aligned report.
func Format(fs []Finding) string {
	if len(fs) == 0 {
		return "electrical rules: clean\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "electrical rules: %d finding(s)\n", len(fs))
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
