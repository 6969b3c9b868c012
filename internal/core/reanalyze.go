// Incremental re-analysis: apply an edit batch from package incremental,
// derive the next stage-database generation sharing every untouched entry,
// reset only the arrivals the edits can move, and re-drain the event queue
// from the dirty frontier. Results are bit-identical to a from-scratch
// analysis of the edited network — the deterministic tie-break in improve
// makes the fixpoint independent of propagation order, and the engine
// falls back to a full run whenever it cannot prove the shortcut safe.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/tech"
)

// ReanalyzeStats reports what one Reanalyze call did.
type ReanalyzeStats struct {
	// Full reports that the engine fell back to a from-scratch analysis;
	// Reason says why.
	Full   bool
	Reason string

	// DirtyNodes / TotalNodes / DirtyFrac describe the invalidation plan
	// (non-source nodes; DirtyFrac = DirtyNodes/TotalNodes).
	DirtyNodes int
	TotalNodes int
	DirtyFrac  float64

	// Epoch is the stage-database generation after the call.
	Epoch uint64
	// StagesEvaluated counts model evaluations this call performed (the
	// same metric StagesEvaluated reports cumulatively).
	StagesEvaluated int

	// StaticCarried reports that the batch changed nothing the switch-level
	// lattice reads, so the previous generation's sensitization snapshot
	// was kept instead of settling the network again.
	StaticCarried bool
	// Phases is where the call's wall time went.
	Phases ReanalyzePhases
}

// ReanalyzePhases splits one Reanalyze call's wall time by step: Apply
// clones the network and applies the batch, Bind recompiles it and repoints
// the analyzer, Settle computes the static sensitization snapshot (zero
// when it was carried), Plan computes the invalidation, Derive builds the
// next stage-database generation, Drain resets and re-propagates.
type ReanalyzePhases struct {
	Apply, Bind, Settle, Plan, Derive, Drain time.Duration
}

// Reanalyze applies the edit batch and brings the analysis up to date.
// The previous network generation is never mutated — concurrent readers
// of the old network or its stage database always finish on a consistent
// snapshot — and afterwards a.Net, a.StageDB() and every arrival describe
// the edited network exactly as a fresh Run over it would.
//
// The incremental path is taken when the invalidation plan stays under
// Options.ReanalyzeMaxDirty and nothing poisons the shortcut; otherwise
// the analysis reruns from scratch (still against the new generation).
// Either way the seeded input events and fixed values carry over.
func (a *Analyzer) Reanalyze(edits []incremental.Edit) (*ReanalyzeStats, error) {
	if a.events == nil {
		return nil, fmt.Errorf("core: Reanalyze before Run")
	}
	stats := &ReanalyzeStats{}
	mark := time.Now()
	lap := func(d *time.Duration) {
		*d = time.Since(mark)
		mark = mark.Add(*d)
	}
	oldNet, oldStatic, oldDB := a.Net, a.static, a.db

	res, err := incremental.Apply(a.Net, edits)
	if err != nil {
		return nil, err
	}
	lap(&stats.Phases.Apply)
	fresh := a.rebind(res.Net)
	lap(&stats.Phases.Bind)
	// The snapshot (and the oracle cached over it) is carried when the batch
	// left the lattice's inputs alone. Anything else settles from power-on:
	// re-settling from the previous generation's charge state would not be
	// bit-identical to what a fresh Run of the edited network computes.
	stats.StaticCarried = res.KeepsStatic(oldNet)
	if !stats.StaticCarried {
		if err := a.settleStatic(); err != nil {
			return nil, err
		}
	}
	lap(&stats.Phases.Settle)
	plan := res.Plan(oldStatic, a.static)
	// A node the batch just made a trigger (its first gate connection) would
	// be replayed into the edited group, but it never recorded a stream:
	// re-derive its arrivals instead — the rule stamped members follow.
	plan.Widen(fresh)
	if a.hier != nil && !plan.ForceFull {
		// Detach stamped instances the batch reaches (widening the plan to
		// cover their interiors) before the incremental/full decision reads
		// the dirty fraction.
		a.hierReanalyze(res, plan)
	}
	stats.DirtyNodes, stats.TotalNodes, stats.DirtyFrac = plan.DirtyNodes, plan.TotalNodes, plan.Frac
	switch {
	case plan.ForceFull:
		stats.Full, stats.Reason = true, "retype changed the strong-source set"
	case plan.Frac > a.Opts.ReanalyzeMaxDirty:
		stats.Full, stats.Reason = true,
			fmt.Sprintf("dirty fraction %.2f above threshold %.2f", plan.Frac, a.Opts.ReanalyzeMaxDirty)
	case a.dirtyTouchesUnbounded(plan):
		// The edit perturbs a feedback region whose spin the guard cut
		// off. The cycle usually spans the dirty/clean boundary, and the
		// clean half only replays its recorded history — it cannot respond
		// to the recomputed half — so the incremental drain would settle
		// the cycle at a non-canonical cutoff. Only a from-scratch drain
		// reproduces the full run's spin.
		stats.Full, stats.Reason = true, "edit touches a feedback region"
	}
	if stats.Full {
		// A from-scratch drain recomputes every arrival flat; nothing
		// stays stamped, so hierarchical state would only misreport.
		a.dropHier()
	}
	lap(&stats.Phases.Plan)

	// Next stage-database generation. A full fallback still derives when
	// it can: the entries are valid either way, only the arrivals need
	// recomputing. ForceFull means the source set changed under the
	// enumerator's feet, so nothing old is trustworthy.
	opt := a.Opts.Stage
	opt.Oracle = a.oracle()
	if plan.ForceFull || oldDB == nil {
		a.db = stage.NewDB(a.Net, opt)
		if oldDB != nil {
			a.db.Epoch = oldDB.Epoch + 1
		}
	} else {
		a.db = oldDB.Derive(a.Net, opt, plan.DirtyTrans, plan.DBDirtyNode, res.OldTrans)
	}
	// The stamp spells out the snapshot; a carried snapshot keeps its stamp.
	if stats.StaticCarried && oldDB != nil {
		a.db.Stamp = oldDB.Stamp
	} else {
		a.db.Stamp = a.stageStamp()
	}
	stats.Epoch = a.db.Epoch
	lap(&stats.Phases.Derive)

	evBefore := a.stageEv
	if stats.Full {
		a.runFull()
	} else {
		carried := a.runIncremental(plan)
		if len(a.Unbounded) > carried {
			// The feedback guard fired inside the dirty cone: its cutoff
			// point is order-dependent, so only a from-scratch drain gives
			// the canonical answer. (Guard hits wholly in the clean region
			// carry over unchanged — the clean region's event stream is
			// independent of the dirty cone, so its cutoffs are already
			// canonical.)
			stats.Full, stats.Reason = true, "feedback detected in the edited region"
			a.dropHier()
			a.runFull()
		}
	}
	a.Truncated = a.Truncated || a.db.Truncated()
	stats.StagesEvaluated = a.stageEv - evBefore
	lap(&stats.Phases.Drain)
	return stats, nil
}

// dirtyTouchesUnbounded reports whether any node the previous analysis
// left on the feedback guard is inside the invalidation plan's dirty cone.
// Guard hits wholly outside the cone are safe to carry: their groups'
// event streams are frozen, and replay reproduces the complete propagated
// stream (see nodeHist) — including its length, so downstream guard
// counts re-accumulate exactly.
func (a *Analyzer) dirtyTouchesUnbounded(plan *incremental.Plan) bool {
	for _, n := range a.Unbounded {
		if plan.NodeDirty(n.Index) {
			return true
		}
	}
	return false
}

// rebind repoints the analyzer at the next network generation. Node
// indexes are stable across edits, so index-keyed state (fixed values,
// initial values, seeds, loop breaks, the per-node drain arrays) carries
// over untouched; the drain arrays only grow by the nodes the batch
// created. A node that stopped being a trigger gives its history back; the
// nodes that became triggers in this generation — and so have no history to
// replay — are returned.
func (a *Analyzer) rebind(nw *netlist.Network) (fresh []int) {
	a.Net = nw
	a.Opts.DB = nil // a caller-shared DB describes the old generation
	wasTrigger := a.triggers
	a.buildGates()
	if a.events == nil || wasTrigger == nil {
		return nil
	}
	if grow := len(nw.Nodes) - len(a.events); grow > 0 {
		a.events = append(a.events, make([][2]Event, grow)...)
		a.count = append(a.count, make([][2]int32, grow)...)
		a.hist = append(a.hist, make([][2]nodeHist, grow)...)
		a.queued = append(a.queued, make([][2]bool, grow)...)
	}
	for n, was := range wasTrigger {
		switch now := a.triggers[n]; {
		case now && !was:
			fresh = append(fresh, n)
		case was && !now:
			a.freeHist(&a.hist[n][tech.Rise])
			a.freeHist(&a.hist[n][tech.Fall])
		}
	}
	return fresh
}

// runFull redoes the analysis from scratch over the current generation
// (the stage database is already bound).
func (a *Analyzer) runFull() {
	a.resetDrain()
	a.seedAll()
	a.drainReplay(nil)
	a.queue = sched.Queue{} // as Run does
}

// runIncremental resets only the dirty arrivals and re-propagates from the
// clean/dirty boundary.
//
// Why this reaches the same fixpoint as runFull: every timing edge runs
// either within one channel-connected group (stages span one group) or
// along gate fanout (a gate event triggers stages in the gated device's
// group). The plan's time-dirty set is closed under gate fanout from every
// perturbed group, so no arrival outside it can change — clean events are
// already at the full analysis's fixpoint, and re-applying their candidates
// is a no-op under the tie-break. Conversely every event inside the dirty
// cone is rederivable from the boundary: the clean nodes (and inputs)
// whose events trigger stages into dirty groups.
// It returns the number of carried-over Unbounded entries: feedback-guard
// hits wholly in the clean region, which remain canonical (dirty-region
// hits are dropped and re-detected; the caller falls back to a full run if
// any new ones appear).
func (a *Analyzer) runIncremental(plan *incremental.Plan) int {
	nw := a.Net
	// rebind already grew the per-node state to this generation's node
	// count (new nodes hold zero entries); only the dirty resets remain.
	for _, i := range plan.Dirty {
		a.events[i] = [2]Event{}
		a.count[i] = [2]int32{}
		for tr := range a.hist[i] {
			a.freeHist(&a.hist[i][tr])
		}
		a.queued[i] = [2]bool{}
	}
	a.queue.Reset()
	// Carry over guard hits outside the dirty cone (remapped to the new
	// generation — node indexes are stable). Clean nodes never re-enter the
	// queue, so they cannot re-report themselves; dropping them would make
	// Unbounded diverge from what a fresh full run reports.
	carried := a.Unbounded[:0:0]
	for _, n := range a.Unbounded {
		if !plan.NodeDirty(n.Index) {
			carried = append(carried, nw.Nodes[n.Index])
		}
	}
	a.Unbounded = carried

	// Boundary replay: collect every clean event that can trigger a stage
	// whose group is time-dirty — not just the final arrival, but the whole
	// recorded history (superseded-but-propagated events first), because a
	// full run propagated those too and a steeper superseded slope can
	// produce the latest downstream consequence. The items are merged into
	// the drain in trigger-time order so candidate generation follows the
	// same global order as a from-scratch run. Improvements can only land on
	// dirty nodes (see above), so clean state — including propagation counts
	// and history — is never touched.
	var replays []replayItem
	for _, i := range plan.Boundary() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			h := &a.hist[i][tr]
			for ci := h.head; ci != 0; ci = a.histChunkAt(ci).next {
				c := a.histChunkAt(ci)
				for k := int32(0); k < c.n; k++ {
					replays = append(replays, replayItem{i, tr, c.ev[k].t, c.ev[k].slope})
				}
			}
			if ev := a.events[i][tr]; ev.Valid && h.propagated {
				replays = append(replays, replayItem{i, tr, ev.T, ev.Slope})
			}
		}
	}
	slices.SortFunc(replays, func(x, y replayItem) int { // sched.Less on the replays' keys
		return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.node, y.node), cmp.Compare(x.tr, y.tr))
	})
	// Seeds on dirty nodes: an input is a strong source and never dirty,
	// but re-applying is cheap and covers any seed landing on a node the
	// batch created or perturbed.
	for _, s := range a.seeded {
		if plan.NodeDirty(s.node) {
			a.improve(s.node, s.tr, Event{
				T: s.t, Slope: s.slope, Valid: true, FromNode: -1,
			})
		}
	}
	a.incDirty = plan // nothing offered to a clean node can land (see above): skip those stages
	a.drainReplay(replays)
	a.incDirty = nil
	return len(carried)
}
