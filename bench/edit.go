package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/netlist"
)

// coneLimit bounds the forward cone of a node the edit stream may touch, as
// a share of the network's nodes. An edit at a node in the middle of the
// multiplier dirties four fifths of the chip and Reanalyze rightly falls back
// to a full run, which is the cold workloads' business; the designer loop
// this workload stands for is the local tweak — a driver resized, a net
// loaded — so edits are drawn from nodes whose change reaches at most half a
// percent of the chip. 64 such edits still stay under the engine's 50 %
// fallback threshold.
const coneLimit = 0.005

// editWarmup is how many batches run before the untraced window opens.
const editWarmup = 5 * 2 * 8 // five blocks of eight fresh batches and their inverses

// batchSizes is the ladder batch sizes are drawn from: the midpoints of eight
// equal slices of a log-uniform 1–64 distribution. Every block of eight fresh
// batches uses each size once, in seeded order, so the seed decides which
// nodes are edited and in which order but not how much work a run holds.
var batchSizes = []int{1, 2, 4, 6, 10, 17, 29, 49}

// coneWithin reports whether at most limit nodes can see their arrival move
// when n changes: n's channel-connected group, everything those nodes gate,
// and so on. It mirrors the invalidation closure of package incremental at
// node granularity, and is used only to choose edit targets; what an edit
// really dirtied is read from ReanalyzeStats.
func coneWithin(n *netlist.Node, limit int, mark []int32, epoch int32) bool {
	queue := []*netlist.Node{n}
	mark[n.Index] = epoch
	visit := func(o *netlist.Node) {
		if o != nil && !o.IsRail() && mark[o.Index] != epoch {
			mark[o.Index] = epoch
			queue = append(queue, o)
		}
	}
	for seen := 0; len(queue) > 0; {
		cur := queue[0]
		queue = queue[1:]
		if seen++; seen > limit {
			return false
		}
		if !cur.IsSource() {
			for _, t := range cur.Terms {
				visit(t.A)
				visit(t.B)
			}
		}
		for _, t := range cur.Gates {
			visit(t.A)
			visit(t.B)
		}
	}
	return true
}

// editStream generates the seeded edit batches. Batches come in pairs: a
// fresh one, then its exact inverse, so the network never drifts.
type editStream struct {
	rng     *rand.Rand
	nodes   []int // indexes of nodes with a small cone
	trans   []int // indexes of transistors gated by such a node
	sizes   []int // the rest of the current block of batch sizes
	inverse []incremental.Edit
}

func newEditStream(nw *netlist.Network, seed int64) *editStream {
	s := &editStream{rng: rand.New(rand.NewSource(seed))}
	limit := int(coneLimit * float64(len(nw.Nodes)))
	if limit < 8 {
		limit = 8
	}
	small := make([]bool, len(nw.Nodes))
	mark := make([]int32, len(nw.Nodes))
	for _, n := range nw.Nodes {
		if !n.IsSource() && coneWithin(n, limit, mark, int32(n.Index+1)) {
			small[n.Index] = true
			s.nodes = append(s.nodes, n.Index)
		}
	}
	for _, t := range nw.Trans {
		if small[t.Gate.Index] {
			s.trans = append(s.trans, t.Index)
		}
	}
	return s
}

// next returns the next batch against the current network generation.
func (s *editStream) next(nw *netlist.Network) []incremental.Edit {
	if s.inverse != nil {
		batch := s.inverse
		s.inverse = nil
		return batch
	}
	if len(s.sizes) == 0 {
		s.sizes = append(s.sizes, batchSizes...)
		s.rng.Shuffle(len(s.sizes), func(i, j int) { s.sizes[i], s.sizes[j] = s.sizes[j], s.sizes[i] })
	}
	size := s.sizes[0]
	s.sizes = s.sizes[1:]

	var batch, undo []incremental.Edit
	added := 0
	for i := 0; i < size; i++ {
		switch u := s.rng.Float64(); {
		case u < 0.60: // load a net: ±5–40 fF
			name := nw.Nodes[s.nodes[s.rng.Intn(len(s.nodes))]].Name
			c := (5 + 35*s.rng.Float64()) * 1e-15
			batch = append(batch, incremental.Edit{Kind: incremental.AddCap, Node: name, Cap: c})
			undo = append(undo, incremental.Edit{Kind: incremental.AddCap, Node: name, Cap: -c})
		case u < 0.95: // resize a device: ×0.8–1.25
			t := nw.Trans[s.trans[s.rng.Intn(len(s.trans))]]
			batch = append(batch, incremental.Edit{Kind: incremental.Resize, Index: t.Index, W: t.W * (0.8 + 0.45*s.rng.Float64())})
			undo = append(undo, incremental.Edit{Kind: incremental.Resize, Index: t.Index, W: t.W})
		default: // add a device in parallel with an existing one, delete it next batch
			t := nw.Trans[s.trans[s.rng.Intn(len(s.trans))]]
			batch = append(batch, incremental.Edit{Kind: incremental.AddTrans, Dev: t.Type,
				Gate: t.Gate.Name, A: t.A.Name, B: t.B.Name, W: t.W, L: t.L})
			undo = append(undo, incremental.Edit{Kind: incremental.RemoveTrans, Index: len(nw.Trans) + added})
			added++
		}
	}
	// Undo in reverse, so added devices are removed last-first and no
	// surviving transistor changes index.
	for i, j := 0, len(undo)-1; i < j; i, j = i+1, j-1 {
		undo[i], undo[j] = undo[j], undo[i]
	}
	s.inverse = undo
	return batch
}

// editLoop is the resident-analyzer designer loop: one full Run, then edit
// batches through Analyzer.Reanalyze.
type editLoop struct {
	e      *env
	spec   string
	a      *core.Analyzer
	stream *editStream

	batches   int
	latMs     []float64
	full      int
	dirtyFrac float64
	stages    int
}

func (l *editLoop) opts() core.Options {
	return core.Options{Workers: 1, MaxEventsPerNode: chipGuard}
}

// build is the workload's set-up: generate the chip, run the full analysis
// that makes it resident, and choose the nodes the stream may edit.
func (l *editLoop) build() error {
	nw, _, err := buildFromSim(l.spec)
	if err != nil {
		return err
	}
	if l.a, err = newAnalyzer(nw, directivesFor(l.spec), l.opts()); err != nil {
		return err
	}
	if err := l.a.Run(); err != nil {
		return err
	}
	l.stream = newEditStream(nw, l.e.seed)
	return nil
}

// step applies one batch. A nil tracer records nothing.
func (l *editLoop) step(tr *tracer) error {
	batch := l.stream.next(l.a.Net)
	if l.e.traced {
		// Replica of the copy-on-edit step Reanalyze begins with; the result
		// is discarded.
		s := l.e.tr.start(-1, "incremental.Apply", "incremental", l.batches)
		_, err := incremental.Apply(l.a.Net, batch)
		l.e.tr.end(s)
		if err != nil {
			return err
		}
	}
	top := tr.start(-1, "batch", "bench", l.batches)
	t0 := time.Now()
	s := tr.start(top, "core.Reanalyze", "core", l.batches)
	stats, err := l.a.Reanalyze(batch)
	tr.end(s)
	d := time.Since(t0)
	tr.end(top)
	l.batches++
	l.e.attempt(err)
	if err != nil {
		return nil // counted; the network is unchanged, carry on
	}
	l.latMs = append(l.latMs, d.Seconds()*1e3)
	if stats.Full {
		l.full++
	}
	l.dirtyFrac += stats.DirtyFrac
	l.stages += stats.StagesEvaluated
	return nil
}

// verify checks the incrementally maintained arrivals against a from-scratch
// analysis of the current network generation.
func (l *editLoop) verify() error {
	fresh, err := newAnalyzer(l.a.Net, directivesFor(l.spec), l.opts())
	if err != nil {
		return err
	}
	if err := fresh.Run(); err != nil {
		return err
	}
	want, got := verdictOf(l.spec, fresh), verdictOf(l.spec, l.a)
	err = want.matches(got, false)
	if err != nil {
		err = fmt.Errorf("after %d batches, incremental vs from-scratch: %w", l.batches, err)
	}
	l.e.attempt(err)
	return nil
}

func runEditLoop(e *env) error {
	l := &editLoop{e: e, spec: e.sz.editSpec}
	if _, err := e.setup(l.build); err != nil {
		return err
	}
	e.attempt(e.goldens[l.spec].matches(verdictOf(l.spec, l.a), true))
	transistors := float64(len(l.a.Net.Trans))

	if e.traced {
		for l.batches < e.sz.tracedBatches {
			if err := l.step(e.tr); err != nil {
				return err
			}
			if l.batches%e.sz.verifyEvery == 0 {
				if err := l.verify(); err != nil {
					return err
				}
			}
		}
		if err := l.verify(); err != nil {
			return err
		}
		e.set("trace_overhead_pct", e.tr.overheadPct())
		e.set("core.reanalyze_ms", median(l.latMs))
		e.set("core.reanalyze_full_share", float64(l.full)/float64(len(l.latMs)))
		e.set("core.reanalyze_dirty_frac", l.dirtyFrac/float64(len(l.latMs)))
		e.set("core.reanalyze_stages", float64(l.stages))
		e.set("incremental.apply_ms", median(e.tr.durationsMs("incremental.Apply")))
		path, raw, _, err := e.writeSim(l.spec)
		if err != nil {
			return err
		}
		if err := (&probe{e: e, spec: l.spec, path: path, raw: raw, guard: chipGuard}).run(); err != nil {
			return err
		}
		zeroServerMetrics(e)
		return nil
	}

	// Warm-up: a fixed number of generations of a fixed stream (the seed takes
	// over afterwards), after which memory is measured. The heap is collected after every block, as it is between the cold
	// workloads' iterations, so that the high-water mark is what the
	// generations hold plus one block's garbage, not an accident of where the
	// collector's pacing stood.
	l.stream.rng = rand.New(rand.NewSource(0))
	for l.batches < editWarmup {
		if err := l.step(nil); err != nil {
			return err
		}
		if l.batches%(2*len(batchSizes)) == 0 {
			runtime.GC()
		}
	}
	e.memoryMetrics(transistors)
	runtime.KeepAlive(l)
	l.stream.rng = rand.New(rand.NewSource(e.seed))
	l.latMs = l.latMs[:0]

	busy := 0.0 // seconds inside Reanalyze; verification pauses the clock
	for busy < e.seconds {
		n := len(l.latMs)
		if err := l.step(nil); err != nil {
			return err
		}
		if len(l.latMs) > n {
			busy += l.latMs[n] / 1e3
		}
		if l.batches%e.sz.verifyEvery == 0 {
			if err := l.verify(); err != nil {
				return err
			}
		}
	}
	if err := l.verify(); err != nil {
		return err
	}

	// The gated tail is p75: p90 sits on the knee where the largest size class
	// begins (48–65 ms over six seeds, against 31–34 ms for p75), so which
	// side of the knee a seed's mix lands on would decide the metric. p90 and
	// p95 are printed for the reader.
	pct, tail := tailPercentile(l.latMs, 75)
	e.set("op_p50_ms", median(l.latMs))
	e.set("op_tail_ms", tail)
	e.set("work_per_s", float64(len(l.latMs))/busy)
	s := sorted(l.latMs)
	fmt.Printf("%s: %s, %d batches (%d full fallbacks, mean dirty %.2f %%), Reanalyze p50 %.1f ms, tail p%.0f %.1f ms (p90 %.1f, p95 %.1f)\n",
		e.workload, l.spec, len(s), l.full, 100*l.dirtyFrac/float64(len(s)), median(s), pct, tail, quantile(s, 0.90), quantile(s, 0.95))
	return nil
}

// zeroEditMetrics reports the edit-path layers as silent on a workload that
// never calls them.
func zeroEditMetrics(e *env) {
	for _, name := range []string{"core.reanalyze_ms", "core.reanalyze_full_share", "core.reanalyze_dirty_frac",
		"core.reanalyze_stages", "incremental.apply_ms"} {
		e.set(name, 0)
	}
}
