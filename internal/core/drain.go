// Parallel intra-run drain: speculate in parallel, commit in order.
//
// The event loop's pop sequence is a pure function of the push multiset
// (sched.Less is a strict total order), and evaluating one popped event's
// consequences — stage enumeration plus delay-model evaluation — reads
// only structures frozen during the drain (the compiled network, the stage
// database, the static sensitization snapshot, the delay tables) plus the
// event payload itself. That makes consequence generation speculatable:
// carve a frontier of upcoming events off the queue, evaluate their
// candidate lists on a worker pool, then commit the results serially in
// strict queue order, validating each speculation against the state the
// commits ahead of it produced.
//
// Three things can invalidate a speculation, and each is detected at
// commit time:
//
//   - the popped entry went stale (an earlier commit improved the node to
//     a later time, re-pushing it) — skipped, exactly as the serial loop
//     skips stale entries;
//   - the entry is still live but its payload changed (an equal-time
//     tie-break improvement rewrote slope/provenance in place) — the item
//     is re-propagated serially from the current payload;
//   - an earlier commit pushed a new entry that precedes the rest of the
//     batch in queue order — the remaining batch items are pushed back and
//     the frontier re-formed, so the commit sequence never deviates from
//     the serial pop sequence.
//
// The frontier is additionally fenced by a time span derived from the
// smallest stage delay committed so far: a commit at time t can only queue
// consequences at t+delay, so a frontier narrower than the minimum delay
// is conflict-free and the validation above never fires. The span is a
// throughput heuristic only — correctness rests on the commit-time checks.
//
// Every structure speculation reads concurrently is safe by construction:
// stage-database slots install by compare-and-swap, stage constants publish
// under an atomic key (one writer, identical values whoever wins), and the
// network, sensitization snapshot and delay tables are immutable during
// the drain. With Workers <= 1 none of this runs — the analyzer takes the
// plain serial loop in drainReplay.
package core

import (
	"context"
	"math"
	"runtime/pprof"

	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/tech"
)

// speculationBatch is the frontier size per worker: large enough to
// amortize the pool's per-round channel hops over many evaluations, small
// enough that a mid-batch preemption wastes little work.
const speculationBatch = 48

// specCand is one speculated improvement candidate: stage st yields an
// arrival at time t with the given output slope. The target is the stage's
// own (Target, Transition).
type specCand struct {
	st       *stage.Stage
	t, slope float64
}

// specItem is one frontier slot: the popped queue entry (or replay item),
// the event payload it was speculated with, and the speculation's results.
type specItem struct {
	key    sched.Item
	ev     Event // payload at formation time; commit validates it is unchanged
	replay bool  // replay items are always live and bypass counters
	live   bool  // live at formation; stale slots skip speculation
	trunc  bool
	evals  int
	cands  []specCand
}

// DrainStats are cumulative counters of the drains of one analyzer (the Run
// plus any Reanalyze calls), exported by crystald as the /metrics drain.*
// fields. Every drain counts its queue traffic and the outcome of each
// candidate arrival it offered a node: Pops − StalePops is the number of
// propagation rounds (guard cut-offs included); Improved + Earlier + TieLost
// + Pruned is the number of candidates, one per stage evaluation that
// produced a delay plus the seeds, and TieLost the evaluations that
// recomputed an arrival the node already held. The fields from Batches on
// describe the speculative drain only (zero at Workers <= 1): BatchItems /
// Batches says how far the fences let it read ahead, FenceStalls how often
// a region clock cut a batch short, SpecUsed/SpecLive how much speculated
// work survived commit validation.
type DrainStats struct {
	Pops      int64 `json:"pops"`       // queue entries popped
	StalePops int64 `json:"stale_pops"` // of those, superseded by a later entry for the same (node, transition)
	MaxQueue  int64 `json:"max_queue"`  // most entries the queue held at a pop of the serial drain

	Improved int64 `json:"improved"` // candidates that became the node's arrival
	Earlier  int64 `json:"earlier"`  // candidates earlier than the arrival already held
	TieLost  int64 `json:"tie_lost"` // candidates at exactly the held time that lost the tie-break
	Pruned   int64 `json:"pruned"`   // candidates for a rail, or for a level the static snapshot rules out

	Batches     int64 `json:"batches"`      // frontiers formed
	BatchItems  int64 `json:"-"`            // total frontier slots (mean batch size = BatchItems/Batches)
	FenceStalls int64 `json:"fence_stalls"` // batches cut short by a region fence
	Preempts    int64 `json:"preempts"`     // commits that preempted the rest of their batch
	SpecLive    int64 `json:"spec_live"`    // slots speculated (live at formation)
	SpecUsed    int64 `json:"spec_used"`    // speculations committed unchanged (occupancy = SpecUsed/SpecLive)
	CommitDepth int64 `json:"commit_depth"` // max commit-queue length observed at batch formation
	Regions     int   `json:"regions"`      // fence regions in the compiled network
}

// Accumulate folds into d what one analyzer did between two readings of its
// counters; high-water marks and the region count are the later reading's.
func (d *DrainStats) Accumulate(before, after DrainStats) {
	d.Pops += after.Pops - before.Pops
	d.StalePops += after.StalePops - before.StalePops
	d.Improved += after.Improved - before.Improved
	d.Earlier += after.Earlier - before.Earlier
	d.TieLost += after.TieLost - before.TieLost
	d.Pruned += after.Pruned - before.Pruned
	d.Batches += after.Batches - before.Batches
	d.BatchItems += after.BatchItems - before.BatchItems
	d.FenceStalls += after.FenceStalls - before.FenceStalls
	d.Preempts += after.Preempts - before.Preempts
	d.SpecLive += after.SpecLive - before.SpecLive
	d.SpecUsed += after.SpecUsed - before.SpecUsed
	d.MaxQueue = max(d.MaxQueue, after.MaxQueue)
	d.CommitDepth = max(d.CommitDepth, after.CommitDepth)
	if after.Regions > 0 {
		d.Regions = after.Regions
	}
}

// DrainStats returns the drain counters accumulated so far.
func (a *Analyzer) DrainStats() DrainStats { return a.stats }

// drainRouted runs the event loop on the configured drain: the serial loop
// at one worker, the speculative parallel drain above it. Arrivals are
// bit-identical either way.
func (a *Analyzer) drainRouted(replays []replayItem) {
	if w := Workers(a.Opts.Workers, 0); w > 1 {
		a.drainParallel(replays, w)
	} else {
		a.drainReplay(replays)
	}
}

// drainParallel is the speculate/validate/commit event loop.
func (a *Analyzer) drainParallel(replays []replayItem, workers int) {
	pool := sched.NewPool(workers)
	defer pool.Close()
	batchMax := speculationBatch * workers
	if cap(a.spec) < batchMax {
		a.spec = make([]specItem, batchMax)
	}
	a.spec = a.spec[:batchMax]
	// Per-region fence state for this generation's partition: spans start
	// unfenced (no committed delay yet) and tighten as commits land.
	region, nr := a.cnet.Regions()
	if cap(a.minDelayR) < nr {
		a.minDelayR = make([]float64, nr)
		a.spans = make([]float64, nr)
	}
	a.minDelayR = a.minDelayR[:nr]
	a.spans = a.spans[:nr]
	for i := range a.minDelayR {
		a.minDelayR[i] = math.Inf(1)
		a.spans[i] = 0
	}
	a.fence.Region = region
	a.fence.Span = a.spans
	a.fence.Reset(nr)
	a.stats.Regions = nr
	ri := 0
	pprof.Do(context.Background(), pprof.Labels("subsystem", "sched", "phase", "drain"),
		func(ctx context.Context) {
			for a.queue.Len() > 0 || ri < len(replays) {
				if d := int64(a.queue.Len()); d > a.stats.CommitDepth {
					a.stats.CommitDepth = d
				}
				nb := a.formBatch(replays, &ri, batchMax)
				a.stats.Batches++
				a.stats.BatchItems += int64(nb)
				if nb > 1 {
					pool.Do("enumerate", func(w int) {
						for i := w; i < nb; i += workers {
							if s := &a.spec[i]; s.live {
								a.speculate(s)
							}
						}
					})
				} else if a.spec[0].live {
					a.speculate(&a.spec[0])
				}
				pprof.Do(ctx, pprof.Labels("phase", "commit"), func(context.Context) {
					a.commitBatch(replays, &ri, nb)
				})
			}
		})
}

// formBatch carves the next frontier off the queue (merged with pending
// replay items in trigger-time order, replays winning ties — the serial
// loop's merge rule) into a.spec, returning the slot count. Admission is
// fenced per region: each region's clock opens at its first item and
// admits later items within the region's span (half the smallest delay
// committed into it), so one region's tight fence never caps the batch's
// reach into independent regions. A fence that cuts a batch short of
// batchMax counts as a stall.
func (a *Analyzer) formBatch(replays []replayItem, ri *int, batchMax int) int {
	if *ri >= len(replays) {
		// Pure-queue frontier: one fenced pass over the queue.
		var stalled bool
		a.fbuf, stalled = a.queue.PopFrontierFenced(a.fbuf[:0], batchMax, &a.fence)
		if stalled {
			a.stats.FenceStalls++
		}
		for i, it := range a.fbuf {
			a.fillSpec(&a.spec[i], it)
		}
		return len(a.fbuf)
	}
	nb := 0
	a.fence.Begin()
	for nb < batchMax && (a.queue.Len() > 0 || *ri < len(replays)) {
		var key sched.Item
		useReplay := a.replayDue(replays, *ri)
		if useReplay {
			key = replays[*ri].key()
		} else {
			key = a.queue.Peek()
		}
		if !a.fence.Admit(key) {
			a.stats.FenceStalls++
			break
		}
		s := &a.spec[nb]
		if useReplay {
			r := replays[*ri]
			*ri++
			*s = specItem{
				key: key, ev: Event{T: r.t, Slope: r.slope, Valid: true},
				replay: true, live: true, cands: s.cands,
			}
			a.stats.SpecLive++
		} else {
			a.queue.Pop()
			a.fillSpec(s, key)
		}
		nb++
	}
	return nb
}

// fillSpec initializes one frontier slot from a popped queue entry,
// snapshotting the live payload (stale entries stay unspeculated — they
// can only be skipped or, rarely, revived by an in-batch tie-break, which
// the commit's payload check routes to serial re-propagation).
func (a *Analyzer) fillSpec(s *specItem, it sched.Item) {
	row, tr := a.row(int(it.Node)), int(it.Tr)
	live := a.queued[row][tr] && it.T == a.events[row][tr].T
	ev := Event{}
	if live {
		ev = a.events[row][tr]
		a.stats.SpecLive++
	}
	*s = specItem{key: it, ev: ev, live: live, cands: s.cands}
}

// speculate evaluates one frontier slot's consequences into s.cands: the
// enumeration and evaluation of fanout, minus the improve calls. Runs on
// pool workers.
func (a *Analyzer) speculate(s *specItem) {
	s.cands = s.cands[:0]
	s.evals = 0
	s.trunc = false
	a.fanout(int(s.key.Node), tech.Transition(s.key.Tr), s.ev, s)
}

// commitBatch replays the frontier in strict queue order against live
// state: exactly the serial loop's accounting (staleness skip, feedback
// guard, history marking), with speculated candidate lists applied when
// the payload is unchanged and serial re-propagation when it is not. A
// commit that queues an entry preceding the rest of the batch preempts it:
// the remaining slots are pushed back (replay slots rewound) and the
// frontier re-forms.
func (a *Analyzer) commitBatch(replays []replayItem, ri *int, nb int) {
	for bi := 0; bi < nb; bi++ {
		s := &a.spec[bi]
		if s.replay {
			a.applySpec(s)
		} else {
			node, tr := int(s.key.Node), tech.Transition(s.key.Tr)
			row := a.row(node)
			a.stats.Pops++
			switch {
			case !a.queued[row][tr] || s.key.T != a.events[row][tr].T:
				a.stats.StalePops++
				continue // stale: a fresher entry is in the queue
			default:
				a.queued[row][tr] = false
				if a.guarded(node, row, tr) {
					continue
				}
				a.hist[row][tr].propagated = true
				if s.live && a.events[row][tr] == s.ev {
					a.applySpec(s)
				} else {
					// Payload changed under the speculation (equal-time
					// tie-break) or the slot was stale at formation and a
					// tie-break revived it: re-propagate from live state.
					a.fanout(node, tr, a.events[row][tr], nil)
				}
			}
		}
		if bi+1 < nb && a.queue.Len() > 0 && sched.Less(a.queue.Peek(), a.spec[bi+1].key) {
			a.stats.Preempts++
			for j := nb - 1; j > bi; j-- {
				if a.spec[j].replay {
					*ri--
				} else {
					a.queue.Push(a.spec[j].key)
				}
			}
			return
		}
	}
}

// applySpec commits one validated speculation: the accounting and improve
// calls the serial propagation would have made, in the same order. Each
// committed delay tightens the fence span of the region it lands IN — the
// target's region, since that is where the consequence can invalidate
// later speculation.
func (a *Analyzer) applySpec(s *specItem) {
	a.stageEv += s.evals
	a.Truncated = a.Truncated || s.trunc
	a.stats.SpecUsed++
	node, tr := int(s.key.Node), tech.Transition(s.key.Tr)
	for i := range s.cands {
		c := &s.cands[i]
		if d := c.t - s.ev.T; d > 0 {
			if r := a.fence.Region[c.st.Target]; d < a.minDelayR[r] {
				a.minDelayR[r] = d
				a.spans[r] = 0.5 * d
			}
		}
		a.improve(int(c.st.Target), c.st.Transition(), Event{
			T: c.t, Slope: c.slope, Valid: true,
			FromNode: node, FromTr: tr, Via: c.st,
		})
	}
}
