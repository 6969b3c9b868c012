// Incremental re-analysis: apply an edit batch from package incremental,
// advance the stage database past it keeping every untouched entry, reset
// only the arrivals the edits can move, and re-drain the event queue from
// the dirty frontier. Results are bit-identical to a from-scratch
// analysis of the edited network — the deterministic tie-break in improve
// makes the fixpoint independent of propagation order, and the engine
// falls back to a full run whenever it cannot prove the shortcut safe.
package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/switchsim"
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

	// Resettled counts the nodes the static sensitization snapshot was
	// settled again for: 0 when the batch changed nothing the switch-level
	// lattice reads and the previous snapshot stands, the forward lattice
	// cone of the batch (the nodes switchsim.Sim.Resume releases) normally,
	// every node when the settle fell back to power-on; SettleReason then
	// says why.
	Resettled    int
	SettleReason string
	// CompileReason is empty when the analyzer's compile of the network
	// stood through the batch (cap and resize edits change nothing it
	// holds), and otherwise says why the network was compiled again.
	CompileReason string
	// Phases is where the call's wall time went.
	Phases ReanalyzePhases
}

// ReanalyzePhases splits one Reanalyze call's wall time by step: Apply
// applies the batch (to a clone on the analyzer's first call, in place
// after), Bind repoints the analyzer and recompiles the network if the
// batch changed its structure, Settle brings the static sensitization
// snapshot up to date (zero when it stands), Plan computes the
// invalidation, Derive advances the stage database, Drain resets and
// re-propagates.
type ReanalyzePhases struct {
	Apply, Bind, Settle, Plan, Derive, Drain time.Duration
}

// reanalyzeMaxDirty is the dirty-node fraction above which Reanalyze
// abandons incremental propagation and redoes the analysis from scratch:
// past it, resetting and re-propagating most of the chip costs more than a
// clean full run.
const reanalyzeMaxDirty = 0.5

// Reanalyze applies the edit batch and brings the analysis up to date:
// afterwards a.Net, a.StageDB() and every arrival describe the edited
// network exactly as a fresh Run over it would.
//
// The network the analyzer was built over belongs to its caller and is
// never written: the first call applies the batch to a clone, which the
// analyzer owns from then on, and later calls edit that clone in place
// (advancing its netlist generation). Likewise the first call derives a
// stage database of its own from the one Run used, which stays as it was,
// and later calls advance that one in place; the analyzer's compile and
// the database's enumeration view are kept between calls and patched. A
// batch that fails validation leaves the analyzer and its network
// untouched, and so does one that retypes a seeded input away from input:
// no analyzer over the edited network could seed it.
//
// The incremental path is taken when the invalidation plan stays under
// reanalyzeMaxDirty and nothing poisons the shortcut; otherwise
// the analysis reruns from scratch (still against the new generation).
// Either way the seeded input events and fixed values carry over.
func (a *Analyzer) Reanalyze(edits []incremental.Edit) (*ReanalyzeStats, error) {
	if a.events == nil {
		return nil, fmt.Errorf("core: Reanalyze before Run")
	}
	if err := a.checkSeedRetypes(edits); err != nil {
		return nil, err
	}
	stats := &ReanalyzeStats{}
	mark := time.Now()
	lap := func(d *time.Duration) {
		*d = time.Since(mark)
		mark = mark.Add(*d)
	}
	oldStatic, oldDB := a.static, a.db

	first := !a.ownsNet
	apply := incremental.Apply
	if !first {
		apply = incremental.ApplyInPlace
	}
	res, err := apply(a.Net, edits)
	if err != nil {
		return nil, err
	}
	a.ownsNet = true
	lap(&stats.Phases.Apply)
	stats.CompileReason = a.compileReason(res)
	fresh := a.rebind(res.Net, stats.CompileReason != "")
	lap(&stats.Phases.Bind)
	stats.Resettled, stats.SettleReason, err = a.settleEdited(res)
	if err != nil {
		return nil, err
	}
	lap(&stats.Phases.Settle)
	newStatic := a.static
	if stats.Resettled == 0 {
		oldStatic, newStatic = nil, nil // the snapshot stood: no value moved
	}
	plan := res.Plan(oldStatic, newStatic, a.plan)
	a.plan = plan
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
	case plan.Frac > reanalyzeMaxDirty:
		stats.Full, stats.Reason = true,
			fmt.Sprintf("dirty fraction %.2f above threshold %.2f", plan.Frac, reanalyzeMaxDirty)
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

	// The next stage-database generation. A full fallback still keeps the
	// clean entries: they are valid either way, only the arrivals need
	// recomputing. ForceFull means the source set changed under the
	// enumerator's feet, so nothing old is trustworthy. The first batch
	// derives a copy: Run's database may be shared (Options.DB,
	// StageDB) and describes the caller's network. Later batches advance
	// the analyzer's own database in place, handing it the compile first —
	// a new one drops the enumeration view, a standing one keeps it for
	// Advance to patch.
	opt := stage.Options{Oracle: a.oracle()}
	ch := stage.Changes{OldTrans: res.OldTrans, Trans: plan.StaleTrans, Nodes: plan.StaleNodes, Loaded: res.Touched()}
	for _, n := range plan.Resensitized {
		for _, ref := range a.cnet.Gates(n) {
			ti, _ := netlist.UnpackGateRef(ref)
			ch.Conduction = append(ch.Conduction, ti)
		}
	}
	switch {
	case plan.ForceFull:
		a.db = stage.NewDB(a.Net, opt)
		a.db.Epoch = oldDB.Epoch + 1
	case first:
		a.db = oldDB.Derive(a.Net, opt, ch)
	default:
		a.db.SetCompiled(a.cnet)
		a.db.Advance(a.Net, opt, ch)
	}
	a.db.SetCompiled(a.cnet)
	// The stamp digests the snapshot; a snapshot that stands keeps its stamp.
	if stats.Resettled == 0 {
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
	a.endDrain()
	stats.StagesEvaluated = a.stageEv - evBefore
	lap(&stats.Phases.Drain)
	return stats, nil
}

// checkSeedRetypes rejects a batch that retypes a seeded node to anything
// but input, which SetInputEvent would refuse to seed. It compares names
// rather than looking nodes up, so a shared network grows no name index
// (see incremental.Apply).
func (a *Analyzer) checkSeedRetypes(edits []incremental.Edit) error {
	for i, e := range edits {
		if e.Kind != incremental.Retype || e.NodeKind == netlist.KindInput {
			continue
		}
		for _, s := range a.seeded {
			if a.Net.Nodes[s.node].Name == e.Node {
				return fmt.Errorf("core: edit %d (retype): %s is a seeded input and must stay one", i, e.Node)
			}
		}
	}
	return nil
}

// settleEdited brings the static snapshot up to date with the edited
// network and returns how many nodes it settled again, and why it settled
// from power-on if it did.
//
// The switch-level lattice settles from all-X to its least fixed point, so
// only the forward lattice cone of the batch's lattice seeds can move:
// Resume releases that cone, computed over the analyzer's compile, and the
// next Settle re-resolves it against the previous snapshot, which is
// bit-identical to a power-on settle (switchsim.Sim.Resume has the
// argument). With no seeds the snapshot stands. The argument needs the
// previous snapshot to be a power-on settle of the same nodes and sources
// that did not oscillate, so a retype, a created node, carried clocked
// state or an oscillation on either side settles from power-on instead.
func (a *Analyzer) settleEdited(res *incremental.Result) (resettled int, reason string, err error) {
	seeds := res.LatticeSeeds()
	switch {
	case res.Retyped():
		reason = "a retype changed the sources"
	case len(a.Net.Nodes) > len(a.static):
		reason = "the batch created nodes"
	case len(seeds) == 0:
		return 0, "", nil
	case a.initial != nil:
		reason = "clocked state is carried in"
	case a.staticOsc:
		reason = "the previous settle oscillated"
	default:
		cone, ok, err := a.settleCone(seeds)
		if ok || err != nil {
			return cone, "", err
		}
		reason = "the cone settle oscillated"
	}
	return len(a.Net.Nodes), reason, a.settleStatic()
}

// settleCone re-settles the forward lattice cone of seeds against the
// current snapshot and, unless the settle oscillated, installs the result.
// It reports the cone's size. Like settleStatic it reads a.cnet.
func (a *Analyzer) settleCone(seeds []int) (cone int, ok bool, err error) {
	nw := a.Net
	sim := switchsim.NewCompiled(nw, a.cnet)
	for idx, v := range a.fixed {
		if err := sim.SetInput(nw.Nodes[idx], v); err != nil {
			return 0, false, err
		}
	}
	cone = len(sim.Resume(a.static, seeds))
	if cone == 0 {
		return 0, true, nil
	}
	sim.Settle()
	if sim.Oscillated() {
		return 0, false, nil
	}
	a.static = sim.Snapshot()
	return cone, true, nil
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

// compileReason says why the batch res needs the network compiled again,
// or "" when the compile the analyzer holds stands: cap and resize edits
// on existing nodes change nothing a netlist.Compact holds.
func (a *Analyzer) compileReason(res *incremental.Result) string {
	switch {
	case a.cnet == nil:
		return "the first batch edits a clone"
	case len(res.Net.Nodes) > len(a.cnet.IsRail):
		return "the batch created nodes"
	case res.Rewired():
		return "the batch added or removed a device"
	case res.Retyped():
		return "a retype changed the sources"
	}
	return ""
}

// rebind repoints the analyzer at the next network generation, compiling
// it again when recompile says the batch changed the compile's contents.
// Node indexes are stable across edits, so index-keyed state (fixed
// values, initial values, seeds, loop breaks, the per-node drain arrays)
// carries over untouched; the drain arrays only grow by the nodes the
// batch created. The nodes that became triggers in this generation — and
// so have no history to replay — are returned (see buildGates).
func (a *Analyzer) rebind(nw *netlist.Network, recompile bool) (fresh []int) {
	a.Net = nw
	a.Opts.DB = nil // a caller-shared DB describes the old generation
	if !recompile {
		return nil // the compile and the trigger and loop-break masks stand
	}
	fresh = a.buildGates()
	if grow := len(nw.Nodes) - len(a.events); grow > 0 {
		a.events = append(a.events, make([][2]Event, grow)...)
		a.count = append(a.count, make([][2]int32, grow)...)
		a.hist = append(a.hist, make([][2]nodeHist, grow)...)
		a.queued = append(a.queued, make([][2]bool, grow)...)
	}
	return fresh
}

// runFull redoes the analysis from scratch over the current generation
// (the stage database is already bound).
func (a *Analyzer) runFull() {
	a.resetDrain()
	a.seedAll()
	a.drainReplay(nil)
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
	var bounds []int
	for _, i := range plan.Boundary() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			bounds = append(bounds, len(replays))
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
	replays = mergeStreams(replays, append(bounds, len(replays)))
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

// mergeStreams merges the replay streams items[bounds[s]:bounds[s+1]] into
// one slice in sched.Less order of their keys (time, node, transition).
// Every stream is one (node, transition)'s recorded events in propagation
// order, T non-decreasing (see nodeHist), so a k-way merge over the stream
// heads orders the whole, and two events of one stream with equal keys — a
// supersession won on the tie-break — keep their propagation order, which
// an unstable sort would not promise.
func mergeStreams(items []replayItem, bounds []int) []replayItem {
	if len(bounds) < 2 {
		return items
	}
	out := make([]replayItem, 0, len(items))
	// heads is a binary min-heap of stream indexes, ordered by the key of
	// each stream's next item; next[s] is that item's index. Distinct
	// streams never share a (node, transition), so the order is strict.
	next := slices.Clone(bounds[:len(bounds)-1])
	heads := make([]int, 0, len(next))
	less := func(x, y int) bool { return sched.Less(items[next[x]].key(), items[next[y]].key()) }
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heads) && less(heads[l], heads[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(heads) && less(heads[r], heads[m]) {
				m = r
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for s := range next {
		if next[s] < bounds[s+1] {
			heads = append(heads, s)
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heads) > 0 {
		s := heads[0]
		out = append(out, items[next[s]])
		if next[s]++; next[s] == bounds[s+1] {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}
