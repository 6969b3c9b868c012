// Hierarchical macromodel analysis: analyze one representative of each
// repeated instance class flat, then stamp its timing onto every other
// member whose boundary context matches exactly.
//
// Why stamping is bit-identical to flat analysis. A stampable instance's
// interior is invisible to the rest of the chip: every node reference of
// its devices is either interior, a rail, or a strong source (package
// hier rejects anything else), stage paths and side walks never extend
// through sources, and interior nodes gate only interior devices. So in a
// flat run each member's interior evolves independently, driven by its
// seeds and by boundary events that are literally shared (same global
// nodes) across the class. The event queue's strict total order and the
// improve tie-break compare original node indexes; interior ranks are
// index-sorted and each boundary node orders identically against every
// member's interior (the rankpos check), so the per-member pop sequences,
// guard counts and surviving events are isomorphic under the rank map.
// Stamping copies the representative's interior events — times, slopes,
// validity, counts — with predecessor indexes rank-remapped, which is
// exactly what the flat drain would have computed.
//
// During the hierarchical drain the members are masked out: their devices'
// consequence lists are never evaluated, boundary fan-out stages targeting
// their interiors are skipped, and their interior nodes propagate nothing
// (their seeds still pop, mirroring the representative's accounting).
// Because the stage database is built lazily as the drain asks, the masks
// are also where the memory saving comes from: a member's enumerations are
// simply never built.
package core

import (
	"slices"

	"repro/internal/hier"
	"repro/internal/incremental"
	"repro/internal/stage"
)

// HierStats is the provenance summary of a hierarchical analysis:
// how many instances were detected, how many received stamped timing,
// and how many were analyzed flat (representatives, singletons, context
// mismatches, detached members).
type HierStats struct {
	Instances int
	Stamped   int
	Flat      int
}

// HierInstance is per-instance provenance.
type HierInstance struct {
	Path             string
	TransLo, TransHi int
	Stamped          bool
	// Reason says why a flat instance is flat; empty for stamped members.
	Reason string
}

// hierState is the analyzer's hierarchical bookkeeping.
type hierState struct {
	plan *hier.Plan
	// classes lists the active stamp classes: member instance indexes,
	// representative first, all surviving the analysis-context checks.
	classes [][]int
	// repOf maps an instance index to its class representative's instance
	// index (-1 when the instance is not in an active class).
	repOf   []int
	stamped []bool
	reason  []string

	// Via provenance of stamped events points into the representative's
	// stages from the generation the stamp was taken in. stampLo holds the
	// per-instance range starts at stamp time, so Trace can place a stage's
	// (stamp-generation) device indexes within the representative's range
	// and land them in the member's current one even after later edit
	// batches have moved ranges.
	stampLo []int
}

// AnalyzeHierarchical is Run with hierarchical stamping enabled: detect
// repeated instances, analyze one representative per class, stamp the
// rest. Results are bit-identical to a flat Run;
// HierStats/HierInstances report what was stamped versus analyzed flat.
func (a *Analyzer) AnalyzeHierarchical() error {
	a.Opts.Hier = true
	return a.Run()
}

// HierStats returns the hierarchical provenance summary (zero when the
// analysis ran flat).
func (a *Analyzer) HierStats() HierStats {
	hs := a.hier
	if hs == nil {
		return HierStats{}
	}
	st := HierStats{Instances: len(hs.plan.Instances)}
	for _, s := range hs.stamped {
		if s {
			st.Stamped++
		}
	}
	st.Flat = st.Instances - st.Stamped
	return st
}

// HierInstances returns per-instance provenance, in instance order.
func (a *Analyzer) HierInstances() []HierInstance {
	hs := a.hier
	if hs == nil {
		return nil
	}
	out := make([]HierInstance, len(hs.plan.Instances))
	for i := range hs.plan.Instances {
		inst := &hs.plan.Instances[i]
		out[i] = HierInstance{Path: inst.Path, TransLo: inst.TransLo, TransHi: inst.TransHi}
		if hs.stamped[i] {
			out[i].Stamped = true
		} else {
			out[i].Reason = hs.reason[i]
		}
	}
	return out
}

// setupHier detects instances and filters the structural classes down to
// the members whose analysis-level context — static sensitization, loop
// breaks, seeded events — matches the representative rank for rank.
// Structure and boundary identity were already verified by hier.Detect.
func (a *Analyzer) setupHier() {
	plan := hier.Detect(a.Net)
	hs := &hierState{
		plan:    plan,
		repOf:   make([]int, len(plan.Instances)),
		stamped: make([]bool, len(plan.Instances)),
		reason:  make([]string, len(plan.Instances)),
		stampLo: make([]int, len(plan.Instances)),
	}
	for i := range plan.Instances {
		hs.repOf[i] = -1
		hs.reason[i] = plan.Instances[i].Reason
	}
	seedsByNode := map[int][]seedEvent{}
	for _, s := range a.seeded {
		seedsByNode[s.node] = append(seedsByNode[s.node], s)
	}
	for _, class := range plan.Classes {
		if len(class) < 2 {
			hs.reason[class[0]] = "singleton class: no other copy to share with"
			continue
		}
		rep := class[0]
		members := []int{rep}
		for _, m := range class[1:] {
			if why := a.hierContextMismatch(plan, rep, m, seedsByNode); why != "" {
				hs.reason[m] = why
				continue
			}
			members = append(members, m)
		}
		if len(members) < 2 {
			hs.reason[rep] = "no member matched the analysis context"
			continue
		}
		hs.reason[rep] = "class representative: analyzed flat"
		hs.classes = append(hs.classes, members)
		for _, m := range members {
			hs.repOf[m] = rep
		}
		for _, m := range members[1:] {
			hs.stamped[m] = true
		}
	}
	hs.buildMasks(a)
	a.hier = hs
}

// hierContextMismatch compares the analysis context of member m against
// representative rep, rank by rank: the settled static values (which feed
// both pruning and enumeration), the loop-break directives, and the
// seeded input events (sequence, not set — equal-time seeds tie-break in
// seeding order). Any difference means the member's interior would not
// replay the representative's drain, so it stays flat.
func (a *Analyzer) hierContextMismatch(p *hier.Plan, rep, m int, seeds map[int][]seedEvent) string {
	ir, im := p.Instances[rep].Interior, p.Instances[m].Interior
	for r := range ir {
		ri, mi := int(ir[r]), int(im[r])
		if a.static != nil && a.static[ri] != a.static[mi] {
			return "static sensitization differs from the representative"
		}
		if a.loopBreak[ri] != a.loopBreak[mi] {
			return "loop-break directives differ from the representative"
		}
		sr, sm := seeds[ri], seeds[mi]
		if len(sr) != len(sm) {
			return "seeded events differ from the representative"
		}
		for k := range sr {
			if sr[k].tr != sm[k].tr || sr[k].t != sm[k].t || sr[k].slope != sm[k].slope {
				return "seeded events differ from the representative"
			}
		}
	}
	return ""
}

// buildMasks rebuilds the analyzer's drain masks (hierSkipNode,
// hierSkipTrans) from the currently stamped set, sized for the current
// generation; nil when nothing is stamped.
func (hs *hierState) buildMasks(a *Analyzer) {
	a.hierSkipNode, a.hierSkipTrans = nil, nil
	if !slices.Contains(hs.stamped, true) {
		return
	}
	a.hierSkipNode = make([]bool, len(a.Net.Nodes))
	a.hierSkipTrans = make([]bool, len(a.Net.Trans))
	for m, s := range hs.stamped {
		if !s {
			continue
		}
		inst := &hs.plan.Instances[m]
		for _, idx := range inst.Interior {
			a.hierSkipNode[idx] = true
		}
		for ti := inst.TransLo; ti < inst.TransHi; ti++ {
			a.hierSkipTrans[ti] = true
		}
	}
}

// dropHier abandons hierarchical analysis (full re-analysis fallback: the
// flat run recomputes every arrival, leaving nothing stamped).
func (a *Analyzer) dropHier() {
	a.hier = nil
	a.hierSkipNode, a.hierSkipTrans = nil, nil
}

// drainAndStamp runs the masked drain, falls whole classes back to flat
// when the feedback guard fires inside one (the guard's cutoff point is
// order-dependent, so a spinning interior cannot be stamped), and finally
// copies the representatives' interior timing onto their members.
func (a *Analyzer) drainAndStamp() {
	for {
		a.seedAll()
		a.drainReplay(nil)
		if !a.hierGuardUnstamp() {
			break
		}
		// Guard hit inside an active class: rare, and the simple correct
		// path is a clean re-drain with the class unmasked.
		a.resetDrain()
	}
	a.stampMembers()
}

// hierGuardUnstamp deactivates every class with a feedback-guard hit in
// any member's interior and reports whether it deactivated one.
func (a *Analyzer) hierGuardUnstamp() bool {
	hs := a.hier
	if hs == nil || len(hs.classes) == 0 {
		return false
	}
	bad := map[int]bool{}
	for _, n := range a.Unbounded {
		if n.Index < len(hs.plan.MemberOf) {
			if inst := int(hs.plan.MemberOf[n.Index]) - 1; inst >= 0 {
				bad[inst] = true
			}
		}
	}
	if len(bad) == 0 {
		return false
	}
	removed := false
	kept := hs.classes[:0:0]
	for _, class := range hs.classes {
		hit := false
		for _, m := range class {
			if bad[m] {
				hit = true
				break
			}
		}
		if !hit {
			kept = append(kept, class)
			continue
		}
		removed = true
		for _, m := range class {
			hs.stamped[m] = false
			hs.repOf[m] = -1
			hs.reason[m] = "feedback guard fired in the class interior: analyzed flat"
		}
	}
	hs.classes = kept
	if removed {
		hs.buildMasks(a)
	}
	return removed
}

// stampMembers copies each representative's interior events onto its
// stamped members: times, slopes, validity and propagation counts verbatim
// (they are isomorphic, see the package comment), predecessor node indexes
// rank-remapped, provenance stages left pointing at the representative
// (Trace translates the hops it reports). Member history stays empty — stamped interiors are
// widened wholesale if an edit ever dirties them, so their replay streams
// are never consulted.
func (a *Analyzer) stampMembers() {
	hs := a.hier
	if hs == nil || len(hs.classes) == 0 {
		return
	}
	for i := range hs.plan.Instances {
		hs.stampLo[i] = hs.plan.Instances[i].TransLo
	}
	for _, class := range hs.classes {
		repID := class[0]
		rep := &hs.plan.Instances[repID]
		for _, mi := range class[1:] {
			if !hs.stamped[mi] {
				continue
			}
			mem := &hs.plan.Instances[mi]
			for r, repIdx := range rep.Interior {
				mn := mem.Interior[r]
				for tr := 0; tr < 2; tr++ {
					ev := a.events[repIdx][tr]
					if ev.Valid && ev.FromNode >= 0 {
						if rank := hs.plan.Rank(repID, int32(ev.FromNode)); rank >= 0 {
							ev.FromNode = int(mem.Interior[rank])
						}
					}
					a.events[mn][tr] = ev
					a.count[mn][tr] = a.count[repIdx][tr]
					a.freeHist(&a.hist[mn][tr])
					a.queued[mn][tr] = false
				}
			}
		}
	}
}

// remapVia translates a representative-space provenance stage into member
// space: interior nodes by rank, devices by position within the
// representative's range at stamp time (a stamped member's own range is
// intact by definition, so the same offset from its current start is the
// corresponding device), shared boundary nodes unchanged. Only Trace calls
// it, for the tens of hops of a reported path; arrivals keep the
// representative's stage by reference.
func (hs *hierState) remapVia(node int, via *stage.Stage) *stage.Stage {
	if node >= len(hs.plan.MemberOf) {
		return via
	}
	mi := int(hs.plan.MemberOf[node]) - 1
	if mi < 0 || !hs.stamped[mi] {
		return via
	}
	repID := hs.repOf[mi]
	mem := &hs.plan.Instances[mi]
	repLo := hs.stampLo[repID]
	repHi := repLo + (hs.plan.Instances[repID].TransHi - hs.plan.Instances[repID].TransLo)
	nodeFn := func(n int32) int32 {
		if rank := hs.plan.Rank(repID, n); rank >= 0 {
			return mem.Interior[rank]
		}
		return n
	}
	transFn := func(t int32) int32 {
		if int(t) >= repLo && int(t) < repHi {
			return int32(mem.TransLo + (int(t) - repLo))
		}
		return t
	}
	return via.Remap(nodeFn, transFn)
}

// hierReanalyze reconciles the hierarchical state with an applied edit
// batch, before the incremental/full decision is made. Instance ranges
// are remapped through the batch's transistor index map; a stamped member
// detaches to flat analysis when its range was disturbed, a device in its
// range is dirty, or its interior intersects the invalidation plan's
// dirty set (which is also how boundary-driven changes arrive — the
// plan's closure dirties every interior a moved boundary node feeds).
// Detached interiors are widened into the plan wholesale: a stamped node
// has no replay history, so partial recomputation inside a member would
// replay an incomplete stream. A dirty representative leaves its members
// stamped — their copied events are precisely the flat values, and the
// members themselves are untouched by construction of the dirty set.
func (a *Analyzer) hierReanalyze(res *incremental.Result, plan *incremental.Plan) {
	hs := a.hier
	if hs == nil {
		return
	}
	// Remap instance ranges: per instance, the image of its old range must
	// be exactly one contiguous run of surviving devices.
	type span struct{ min, max, count int }
	spans := make([]span, len(hs.plan.Instances))
	for i := range spans {
		spans[i].min = -1
	}
	for j, old := range res.OldTrans {
		if old < 0 {
			continue
		}
		k := hs.plan.Covering(old)
		if k < 0 {
			continue
		}
		sp := &spans[k]
		if sp.min < 0 || j < sp.min {
			if sp.min < 0 {
				sp.max = j
			}
			sp.min = j
		}
		if j > sp.max {
			sp.max = j
		}
		sp.count++
	}
	detach := make([]bool, len(hs.plan.Instances))
	newRange := make([][2]int, len(hs.plan.Instances))
	for i := range hs.plan.Instances {
		inst := &hs.plan.Instances[i]
		n := inst.TransHi - inst.TransLo
		sp := spans[i]
		if sp.count != n || sp.max-sp.min+1 != n {
			detach[i] = true
			continue
		}
		newRange[i] = [2]int{sp.min, sp.max + 1}
		for j := sp.min; j <= sp.max; j++ {
			if j < len(plan.DirtyTrans) && plan.DirtyTrans[j] {
				detach[i] = true
				break
			}
		}
		if !detach[i] {
			for _, idx := range inst.Interior {
				if plan.NodeDirty(int(idx)) {
					detach[i] = true
					break
				}
			}
		}
	}
	// Commit the surviving ranges (the current-generation view the masks
	// and future batches use; via remapping keeps its stamp-time snapshot).
	for i := range hs.plan.Instances {
		if !detach[i] {
			hs.plan.Instances[i].TransLo = newRange[i][0]
			hs.plan.Instances[i].TransHi = newRange[i][1]
		}
	}
	var widen []int
	changed := false
	kept := hs.classes[:0:0]
	for _, class := range hs.classes {
		members := class[:1]
		for _, m := range class[1:] {
			if !detach[m] {
				members = append(members, m)
				continue
			}
			changed = true
			hs.stamped[m] = false
			hs.repOf[m] = -1
			hs.reason[m] = "edit reached the instance: detached to flat analysis"
			for _, idx := range hs.plan.Instances[m].Interior {
				widen = append(widen, int(idx))
			}
		}
		if len(members) >= 2 {
			kept = append(kept, members)
		} else {
			// Class dissolved; the representative was flat all along.
			hs.repOf[members[0]] = -1
		}
	}
	hs.classes = kept
	if len(widen) > 0 {
		plan.Widen(widen)
	}
	if changed || len(a.Net.Nodes) != len(a.hierSkipNode) {
		hs.buildMasks(a)
	}
}
