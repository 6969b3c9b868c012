// Package core is the timing verifier: the Crystal-style worst-case
// analyzer that propagates latest rise/fall times (with slopes) through a
// switch-level network using a pluggable delay model, and traces the
// critical paths.
//
// The analysis is vectorless. Each node carries two worst-case events —
// the latest time it can finish rising and the latest time it can finish
// falling. Chip inputs are seeded by the user; events then propagate:
//
//   - a gate event that turns a transistor ON evaluates every stage whose
//     path runs through that transistor (package stage enumerates them);
//   - a gate event that turns a transistor OFF releases its channel nodes,
//     which may now move toward whatever still drives them (the classic
//     nMOS case: output rises through the depletion load after the
//     pulldown shuts off);
//   - an input's own transition propagates through already-conducting
//     pass transistors.
//
// Static sensitization from the switch-level simulator prunes stages
// through definitely-off transistors and transitions to values a node
// already holds. Everything else is worst case, as in the paper.
package core

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/delay"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// Event is a worst-case arrival: node n finishes transition tr at time T
// (50% crossing) with 10–90% transition time Slope. It is a 32-byte record,
// two per node; the small fields share the last word.
type Event struct {
	T     float64
	Slope float64

	// Provenance for path tracing.
	Via      *stage.Stage    // stage that produced this event (nil if seeded)
	FromNode int32           // predecessor node index, -1 for seeded inputs
	FromTr   tech.Transition // predecessor transition

	Valid bool
}

// Options tunes the analysis.
type Options struct {
	// DB optionally shares a precomputed stage database built by an
	// earlier run over the same network with the same sensitization
	// (fixed values and seeded inputs).
	// Run verifies the database's stamp against this analysis and falls
	// back to a private database on any mismatch, so a stale DB can cost
	// time but never correctness. Obtain one from Analyzer.StageDB after
	// a Run. A database passes from one run to the next, never to two
	// analyzers running at once (see stage.DB).
	DB *stage.DB
	// Deprecated: kept only because bench/chip.go, bench/cold.go,
	// bench/edit.go and bench/probes.go set it; ignored. Run and Reanalyze
	// are serial, and ClockedAnalysis fans its phases out over GOMAXPROCS.
	Workers int
	// MaxEventsPerNode guards against combinational feedback: after this
	// many propagation rounds from one node's arrival the analyzer stops
	// propagating it and records the node in Unbounded (default 150 —
	// deep ripple structures legitimately re-propagate tens of times
	// during longest-path relaxation).
	MaxEventsPerNode int
	// LoopBreak lists nodes whose events are recorded but not propagated
	// further — the user directive Crystal required to cut combinational
	// feedback (latch internals) out of the worst-case iteration. New reads
	// the nodes' indexes and keeps nothing of the slice (Analyzer.Opts holds
	// nil here), so one Options value may configure any number of analyzers.
	LoopBreak []*netlist.Node
	// Deprecated: kept only because bench/chip.go and bench/probes.go set
	// it; ignored.
	NoReorder bool
	// Hier enables hierarchical macromodel analysis (see hier.go): repeated
	// instances annotated in the netlist are detected, one representative
	// per class is analyzed flat, and its interior timing is stamped onto
	// every member whose boundary context matches exactly. Results are
	// bit-identical to a flat run; instances whose context differs fall
	// back to flat analysis individually.
	Hier bool
}

func (o Options) fill() Options {
	if o.MaxEventsPerNode <= 0 {
		o.MaxEventsPerNode = 150
	}
	o.MaxEventsPerNode = min(o.MaxEventsPerNode, math.MaxInt32-1) // rounds are counted in 32 bits
	return o
}

// Analyzer performs worst-case timing analysis of one network with one
// delay model. Build with New, seed inputs, then Run.
type Analyzer struct {
	Net   *netlist.Network
	Model delay.Model
	Opts  Options

	static []switchsim.Value // settled values under fixed inputs

	// Per-node drain state, indexed by node index.
	events [][2]Event    // per node: [Rise, Fall]
	count  [][2]int32    // propagation rounds, at most MaxEventsPerNode+1
	hist   [][2]nodeHist // superseded-but-propagated events (incremental replay)

	// histBlocks backs every nodeHist chain: fixed-size blocks of chunks
	// addressed by a flat int32 index, with histFree heading a free chain
	// of chunks returned by dirty-node resets. Blocks are pointer-free
	// and, once allocated, never move — the previous single-slice arena
	// re-allocated and copied itself on every capacity step, and that
	// growslice traffic (fresh pages, memmove, GC churn) billed ~25% of a
	// chip-scale drain. Index 0 is a sentinel ("no chunk"), so the zero
	// nodeHist is naturally empty.
	histBlocks [][]histChunk
	histLen    int32
	histFree   int32

	// Unbounded lists nodes whose arrival kept improving past the guard
	// (combinational feedback); their times are lower bounds only.
	Unbounded []*netlist.Node
	// Truncated reports that stage enumeration hit a cap somewhere.
	Truncated bool

	seeded       []seedEvent
	fixed        map[int]switchsim.Value
	initial      []switchsim.Value // pre-settle stored values (clocked analyses)
	loopBreakIdx []int             // Options.LoopBreak by node index
	loopBreak    []bool            // the same as a per-node mask
	// triggers marks the nodes whose events can trigger a stage: the node
	// gates a device or is an input with channel terminals, and no loop
	// break cuts its fanout. fanout is a no-op everywhere else, so only
	// these nodes record replay history (see improve).
	triggers []bool
	queue    sched.Queue
	queued   [][2]bool // per (node, transition): live entry in the queue
	stageEv  int       // stages evaluated (cost metric)
	stats    DrainStats

	// db memoizes stage enumeration: sensitization is static during Run,
	// so a trigger's stages never change. Either a private database or
	// one shared via Options.DB (stamp-checked in Run).
	db *stage.DB

	// cnet is the compiled structure-of-arrays view of a.Net (CSR gate
	// adjacency, per-node flags) — the only network representation the
	// event loop reads. Built by buildGates before Run's drain and dropped
	// when it returns (endDrain); an editing analyzer keeps it and
	// recompiles only for a batch that changes what it holds. Node indexes
	// are stable across edits, so the per-node arrays above only grow.
	cnet *netlist.Compact

	// Hierarchical analysis state (nil when Options.Hier is off or nothing
	// was detected). The masks mark stamped members' interiors and devices
	// (hierState.buildMasks) and are checked in the hot loops; both are nil
	// whenever nothing is stamped, so the flat path costs one nil check.
	// Indexed by node / transistor index.
	hier          *hierState
	hierSkipNode  []bool
	hierSkipTrans []bool

	// incDirty is the plan while an incremental drain runs (nil otherwise):
	// a stage whose target it left clean is skipped, not evaluated.
	incDirty *incremental.Plan

	// staticOsc reports that the power-on settle behind static oscillated.
	staticOsc bool
	// ownsNet reports that Net is the analyzer's own: the clone its first
	// Reanalyze made, which later batches edit in place. The analyzer then
	// owns its stage database too, and advances it in place.
	ownsNet bool
	// plan is the last batch's invalidation plan, whose per-index arrays
	// the next batch's plan takes over.
	plan *incremental.Plan
}

// histEvent is one superseded event that was propagated before being
// replaced. A node's worst-case (T, Slope) pair is not a complete summary
// of its influence: an earlier event with a slower slope can produce a
// LATER arrival downstream (slope degradation through the delay model), so
// its candidates survive in downstream maxima even after the event itself
// is replaced. Incremental re-analysis must replay these to reproduce a
// from-scratch run bit for bit.
type histEvent struct {
	t, slope float64
}

// histChunkLen is the events-per-chunk of the history arena: sized so the
// common short streams (a handful of superseded events) fit in one chunk
// while hub nodes near the guard budget chain a few dozen.
const histChunkLen = 8

// histChunk is one arena block of a (node, transition)'s recorded stream.
// next links to the following chunk (arena index; 0 terminates). Freed
// chains are threaded through next onto the analyzer's free list.
type histChunk struct {
	ev   [histChunkLen]histEvent
	n    int32
	next int32
}

// nodeHist tracks one (node, transition)'s replay state: the complete
// chain of superseded-but-propagated events in propagation order (T
// non-decreasing), stored in the analyzer's history arena (head/tail are
// chunk indexes, 0 = empty), and whether the CURRENT event has propagated
// yet.
//
// The chain is deliberately NOT pruned to the slope frontier. Dominated
// entries (an earlier, shallower event followed by a later, steeper one)
// cannot change any final arrival — their replayed candidates lose to the
// dominating event's under the deterministic tie-break — but they do
// carry propagation *rounds*: a downstream node's feedback-guard count is
// the number of improvements it saw, not the number of frontier events.
// Pruning here made incremental re-analysis under-count rounds on nodes
// fed by long streams (e.g. downstream of a guard-cut spin) and miss
// guard hits a from-scratch run reports. The chain length is bounded by
// Options.MaxEventsPerNode per (node, transition): the guard stops
// propagation — and therefore recording — past that count.
type nodeHist struct {
	head, tail int32
	propagated bool
}

// histBlockBits sizes arena blocks at 1<<histBlockBits chunks (~550 KiB
// each): big enough that a chip-scale run allocates a handful of blocks,
// small enough that gate-sized runs don't overcommit.
const histBlockBits = 12

// histChunkAt resolves a flat arena index to its chunk.
func (a *Analyzer) histChunkAt(idx int32) *histChunk {
	return &a.histBlocks[idx>>histBlockBits][idx&(1<<histBlockBits-1)]
}

// appendHist records one superseded-but-propagated event on h's chain.
func (a *Analyzer) appendHist(h *nodeHist, t, slope float64) {
	if h.tail != 0 {
		if c := a.histChunkAt(h.tail); c.n < histChunkLen {
			c.ev[c.n] = histEvent{t, slope}
			c.n++
			return
		}
	}
	idx := a.newHistChunk()
	c := a.histChunkAt(idx)
	c.ev[0] = histEvent{t, slope}
	c.n = 1
	if h.tail == 0 {
		h.head = idx
	} else {
		a.histChunkAt(h.tail).next = idx
	}
	h.tail = idx
}

// newHistChunk returns a zeroed chunk: off the free list when a dirty
// reset returned one, the next never-used slot otherwise (appending a
// fresh block when the current one is full; index 0 stays the sentinel).
func (a *Analyzer) newHistChunk() int32 {
	if idx := a.histFree; idx != 0 {
		c := a.histChunkAt(idx)
		a.histFree = c.next
		*c = histChunk{}
		return idx
	}
	if a.histLen == 0 {
		a.histLen = 1 // reserve the index-0 sentinel
	}
	if int(a.histLen)>>histBlockBits == len(a.histBlocks) {
		a.histBlocks = append(a.histBlocks, make([]histChunk, 1<<histBlockBits))
	}
	idx := a.histLen
	a.histLen++
	// Blocks survive resetHistArena without being rezeroed, so a slot may
	// hold a previous drain's chunk.
	*a.histChunkAt(idx) = histChunk{}
	return idx
}

// freeHist clears h and threads its chunk chain onto the free list for
// reuse (a dirty hub node re-records a stream of comparable length every
// epoch).
func (a *Analyzer) freeHist(h *nodeHist) {
	if h.head != 0 {
		a.histChunkAt(h.tail).next = a.histFree
		a.histFree = h.head
	}
	*h = nodeHist{}
}

// resetHistArena empties the arena for a fresh from-scratch drain,
// keeping the allocated blocks; every nodeHist referencing it must be
// zeroed by the caller.
func (a *Analyzer) resetHistArena() {
	a.histLen = 0
	a.histFree = 0
}

type seedEvent struct {
	node  int // by index: seeds outlive the network generation they were set on
	tr    tech.Transition
	t     float64
	slope float64
}

type qkey struct {
	node int
	tr   tech.Transition
}

// The pending-propagation queue is sched.Queue, under the strict total order
// sched.Less (arrival time, then node, then transition): a mere partial
// order on time would let the pop order of tied events depend on every
// unrelated event ever pushed, and feedback-guard cutoffs would differ
// between a full run and an incremental one. Node indexes are stable across
// edits, so the order is canonical for a given event set. Entries carry the
// arrival time they were queued at; stale ones are skipped at pop.

// New creates an analyzer for the network using the given delay model.
func New(nw *netlist.Network, m delay.Model, opts Options) *Analyzer {
	a := &Analyzer{
		Net:   nw,
		Model: m,
		Opts:  opts.fill(),
		fixed: make(map[int]switchsim.Value),
	}
	for _, n := range opts.LoopBreak {
		a.loopBreakIdx = append(a.loopBreakIdx, n.Index)
	}
	a.Opts.LoopBreak = nil
	return a
}

// SetFixed pins a node to a constant logic value for sensitization (e.g. a
// mode or enable input that does not toggle in the analyzed scenario).
func (a *Analyzer) SetFixed(n *netlist.Node, v switchsim.Value) {
	a.fixed[n.Index] = v
}

// defaultSlope is the input slope SetInputEvent seeds when given none.
const defaultSlope = 1e-9

// SetInputEvent seeds a worst-case transition on a chip input: node n
// finishes transition tr at time t with the given 10–90% slope (0 selects
// defaultSlope, 1 ns).
func (a *Analyzer) SetInputEvent(n *netlist.Node, tr tech.Transition, t, slope float64) error {
	if n.Kind != netlist.KindInput {
		return fmt.Errorf("core: %s is not marked as an input", n.Name)
	}
	if slope <= 0 {
		slope = defaultSlope
	}
	a.seeded = append(a.seeded, seedEvent{n.Index, tr, t, slope})
	return nil
}

// Directives are the analysis directives a Crystal user gives, by node
// name: nodes pinned for sensitization, nodes whose fanout is cut, and the
// inputs that switch. With neither Rise nor Fall every input not in Fix
// rises and falls at t = 0, the vectorless worst case.
type Directives struct {
	// Fix pins nodes to 0 or 1.
	Fix map[string]switchsim.Value
	// LoopBreak names the nodes whose fanout is cut (Options.LoopBreak).
	LoopBreak []string
	// Rise and Fall name the inputs that rise and fall at t = 0.
	Rise, Fall []string
	// Slope is the seeded transition time in seconds (0 selects 1 ns).
	Slope float64
}

// Pin is a node held at a logic value.
type Pin struct {
	Node  *netlist.Node
	Value switchsim.Value
}

// Resolved is Directives looked up in one network.
type Resolved struct {
	Fix                   []Pin // in name order
	LoopBreak, Rise, Fall []*netlist.Node
}

// Resolve looks up every directive's nodes in nw: Fix in name order (an X
// pin is an error), then LoopBreak, then Rise and Fall, which must name
// inputs. The error is the first in that order and names its directive, as
// in `fix: no node named "q"`.
func (d Directives) Resolve(nw *netlist.Network) (Resolved, error) {
	var r Resolved
	names := make([]string, 0, len(d.Fix))
	for name := range d.Fix {
		names = append(names, name)
	}
	slices.Sort(names)
	fixed, err := nw.LookupAll(names)
	if err != nil {
		return r, fmt.Errorf("fix: %w", err)
	}
	for i, n := range fixed {
		if d.Fix[names[i]] == switchsim.VX {
			return r, fmt.Errorf("fix: %s=X: want 0 or 1", n.Name)
		}
		r.Fix = append(r.Fix, Pin{n, d.Fix[names[i]]})
	}
	for _, dir := range []struct {
		name  string
		names []string
		nodes *[]*netlist.Node
	}{{"loopbreak", d.LoopBreak, &r.LoopBreak}, {"rise", d.Rise, &r.Rise}, {"fall", d.Fall, &r.Fall}} {
		nodes, err := nw.LookupAll(dir.names)
		for _, n := range nodes {
			if dir.name != "loopbreak" && n.Kind != netlist.KindInput && err == nil {
				err = fmt.Errorf("core: %s is not marked as an input", n.Name) // as SetInputEvent says
			}
		}
		if err != nil {
			return r, fmt.Errorf("%s: %w", dir.name, err)
		}
		*dir.nodes = nodes
	}
	return r, nil
}

// New builds an analyzer over nw under the directives: it resolves them,
// adds the loop breaks to opts.LoopBreak, pins Fix, then seeds Rise, then
// Fall.
func (d Directives) New(nw *netlist.Network, m delay.Model, opts Options) (*Analyzer, error) {
	r, err := d.Resolve(nw)
	if err != nil {
		return nil, err
	}
	opts.LoopBreak = slices.Concat(opts.LoopBreak, r.LoopBreak)
	a := New(nw, m, opts)
	for _, p := range r.Fix {
		a.SetFixed(p.Node, p.Value)
	}
	// Resolve checked that every seeded node is an input: seeding cannot fail.
	if len(r.Rise) == 0 && len(r.Fall) == 0 {
		for _, in := range nw.Inputs() {
			if _, ok := a.fixed[in.Index]; !ok {
				a.SetInputEvent(in, tech.Rise, 0, d.Slope)
				a.SetInputEvent(in, tech.Fall, 0, d.Slope)
			}
		}
	}
	for _, in := range r.Rise {
		a.SetInputEvent(in, tech.Rise, 0, d.Slope)
	}
	for _, in := range r.Fall {
		a.SetInputEvent(in, tech.Fall, 0, d.Slope)
	}
	return a, nil
}

// Arrival returns the worst-case event for node n and transition tr. It
// reads one record and allocates nothing. For a node carrying stamped
// timing (hierarchical analysis) Via is the class representative's stage,
// in the representative's index space; Trace translates the hops it
// returns into the node's own instance.
func (a *Analyzer) Arrival(n *netlist.Node, tr tech.Transition) Event {
	if a.events == nil {
		return Event{}
	}
	return a.events[n.Index][tr]
}

// StagesEvaluated reports how many stage/model evaluations Run performed —
// the throughput metric of experiment E6.
func (a *Analyzer) StagesEvaluated() int { return a.stageEv }

// oracle returns the sensitization oracle of the current static snapshot:
// conduction is a pure function of the settled values, which the closure
// reads. The stage database asks it once per device when it builds its
// enumeration view, which keeps the answers in an array of its own.
func (a *Analyzer) oracle() stage.Oracle {
	static := a.static
	return func(t *netlist.Trans) stage.Conduction {
		if t.AlwaysOn() {
			return stage.On
		}
		switch g := static[t.Gate.Index]; {
		case g == switchsim.VX:
			return stage.Maybe
		case g == switchsim.FromBool(t.ConductsOn() == 1):
			return stage.On
		}
		return stage.Off
	}
}

// Run executes the analysis. It may be called once per analyzer.
func (a *Analyzer) Run() error {
	if a.events != nil {
		return fmt.Errorf("core: Run already called")
	}
	if len(a.seeded) == 0 {
		return fmt.Errorf("core: no input events seeded")
	}
	nw := a.Net
	a.resetDrain()
	a.buildGates()

	if err := a.settleStatic(); err != nil {
		return err
	}
	if a.Opts.Hier {
		a.setupHier()
	}

	// Stage database: accept the shared one only if it was built over
	// this network, at its current edit generation, under the same
	// sensitization and enumeration bounds; otherwise build a private one.
	stamp := a.stageStamp()
	if db := a.Opts.DB; db != nil && db.Network() == nw && db.Generation() == nw.Generation() && db.Stamp == stamp {
		a.db = a.Opts.DB
	} else {
		a.db = stage.NewDB(nw, stage.Options{Oracle: a.oracle()})
		a.db.Stamp = stamp
	}
	a.db.SetCompiled(a.cnet)

	if a.hier != nil {
		a.drainAndStamp()
	} else {
		a.seedAll()
		a.drainReplay(nil)
	}
	a.endDrain()
	return nil
}

// endDrain releases what only a drain reads, when Run or Reanalyze returns:
// the queue (tens of thousands of entries; an edit's re-drain needs
// hundreds), and — unless the analyzer owns its network and so will edit
// again — the compile and the stage database's enumeration view. Run's
// buildGates compiles before its drain, and the database rebuilds its view
// on demand; an editing analyzer keeps both for the next batch to patch.
func (a *Analyzer) endDrain() {
	a.queue = sched.Queue{}
	if !a.ownsNet {
		a.cnet = nil
		a.db.SetCompiled(nil)
	}
}

// resetDrain empties every per-node drain array, the history arena and the
// queue for a from-scratch drain over the current a.Net generation.
func (a *Analyzer) resetDrain() {
	n := len(a.Net.Nodes)
	a.events = make([][2]Event, n)
	a.count = make([][2]int32, n)
	a.hist = make([][2]nodeHist, n)
	a.resetHistArena()
	a.queued = make([][2]bool, n)
	a.queue.Reset()
	a.Unbounded = nil
}

// buildGates compiles the current a.Net generation and brings the
// loop-break and trigger masks up to date, growing them by the nodes the
// network gained. A node that stopped being a trigger gives its replay
// history back; the nodes that became triggers — and so have no history to
// replay — are returned (none on the first build, before any drain, and
// none the batch created: those are dirty already).
func (a *Analyzer) buildGates() (fresh []int) {
	nw := a.Net
	cn := netlist.Compile(nw)
	a.cnet = cn
	first, old := a.triggers == nil, len(a.triggers)
	if grow := len(nw.Nodes) - old; grow > 0 {
		a.loopBreak = append(a.loopBreak, make([]bool, grow)...)
		a.triggers = append(a.triggers, make([]bool, grow)...)
	}
	if first {
		for _, idx := range a.loopBreakIdx {
			a.loopBreak[idx] = true
		}
	}
	for n, was := range a.triggers {
		now := !a.loopBreak[n] &&
			(cn.GateStart[n+1] > cn.GateStart[n] || (cn.IsInput[n] && cn.HasTerms[n]))
		if now == was {
			continue
		}
		a.triggers[n] = now
		switch {
		case first || n >= old:
		case now:
			fresh = append(fresh, n)
		default:
			a.freeHist(&a.hist[n][tech.Rise])
			a.freeHist(&a.hist[n][tech.Fall])
		}
	}
	return fresh
}

// settleStatic computes the static sensitization snapshot for the current
// a.Net generation, from power-on: settle the network with fixed values;
// nodes that receive events are left at X (they change during analysis). It
// replaces a.static; the simulator itself does not outlive the call. It
// reads a.cnet, so the generation must be bound (Run's buildGates, or
// Reanalyze's rebind) first.
func (a *Analyzer) settleStatic() error {
	nw := a.Net
	sim := switchsim.NewCompiled(nw, a.cnet)
	for idx, v := range a.fixed {
		if err := sim.SetInput(nw.Nodes[idx], v); err != nil {
			return err
		}
	}
	// Carried state (clocked analyses): seed stored values before the
	// settle so latched nodes keep their phase-boundary levels.
	if a.initial != nil {
		for idx, v := range a.initial {
			n := nw.Nodes[idx]
			if n.IsRail() {
				continue
			}
			if _, isFixed := a.fixed[idx]; isFixed {
				continue
			}
			if err := sim.SetValue(n, v); err != nil {
				return err
			}
		}
	}
	sim.Settle()
	osc := sim.Oscillated()
	// Nodes downstream of event inputs cannot be trusted as static: the
	// seeded inputs toggle. Re-settle with those inputs at X.
	for _, s := range a.seeded {
		n := nw.Nodes[s.node]
		if _, isFixed := a.fixed[s.node]; isFixed {
			return fmt.Errorf("core: node %s both fixed and seeded", n.Name)
		}
		if err := sim.SetInput(n, switchsim.VX); err != nil {
			return err
		}
	}
	sim.Settle()
	a.static = sim.Snapshot()
	a.staticOsc = osc || sim.Oscillated()
	return nil
}

// seedAll applies every seeded input event.
func (a *Analyzer) seedAll() {
	for _, s := range a.seeded {
		a.improve(s.node, s.tr, Event{
			T: s.t, Slope: s.slope, Valid: true, FromNode: -1,
		})
	}
}

// replayItem is one historical boundary event re-injected during
// incremental re-analysis, merged with the queue in trigger-time order so
// candidate generation follows the same global order as a full run.
type replayItem struct {
	node  int
	tr    tech.Transition
	t     float64
	slope float64
}

func (r *replayItem) key() sched.Item {
	return sched.Item{T: r.t, Node: int32(r.node), Tr: uint8(r.tr)}
}

// drainReplay is the event loop — the only one: every from-scratch,
// hierarchical and incremental analysis drains here. It interleaves the
// given replay items (sorted by time; nil outside Reanalyze) with the queue
// in time order. Replays re-propagate the recorded events of clean boundary
// nodes; they bypass the improvement counters because the counts already
// include those rounds from the run that recorded them.
func (a *Analyzer) drainReplay(replays []replayItem) {
	ri := 0
	for a.queue.Len() > 0 || ri < len(replays) {
		if a.replayDue(replays, ri) {
			r := replays[ri]
			ri++
			a.fanout(r.node, r.tr, Event{T: r.t, Slope: r.slope, Valid: true})
			continue
		}
		// Pop the earliest pending event: processing in time order makes
		// most improvements final on first visit — longest-path over a
		// DAG degenerates to one visit per node; reconvergence and
		// cycles re-queue. The queue holds stale entries (an improvement
		// re-pushes with the new time); only an entry matching the
		// node's current arrival is live.
		a.stats.Pops++
		a.stats.MaxQueue = max(a.stats.MaxQueue, int64(a.queue.Len()))
		it := a.queue.Pop()
		node, tr := int(it.Node), tech.Transition(it.Tr)
		if !a.queued[node][tr] || it.T != a.events[node][tr].T {
			a.stats.StalePops++
			continue // stale: a fresher entry is in the queue
		}
		a.queued[node][tr] = false
		if a.guarded(node, tr) {
			continue
		}
		a.hist[node][tr].propagated = true
		a.fanout(node, tr, a.events[node][tr])
	}
}

// replayDue reports whether the next pending replay goes before the queue's
// head: replays merge with the queue in trigger-time order and win ties.
// (Peek leaves the queue's floor at the last pop, at or before the replay.)
func (a *Analyzer) replayDue(replays []replayItem, ri int) bool {
	if ri >= len(replays) {
		return false
	}
	return a.queue.Len() == 0 || !sched.Less(a.queue.Peek(), replays[ri].key())
}

// guarded counts one propagation round of (node, tr) and reports whether the
// feedback guard cuts it off, listing the node in Unbounded the first time.
// The guard counts rounds, not improvements, so deep longest-path relaxation
// is unaffected while true cycles (which re-queue forever) are cut off.
func (a *Analyzer) guarded(node int, tr tech.Transition) bool {
	c := &a.count[node][tr]
	if int(*c) <= a.Opts.MaxEventsPerNode {
		*c++
		if int(*c) <= a.Opts.MaxEventsPerNode {
			return false
		}
		a.Unbounded = append(a.Unbounded, a.Net.Nodes[node])
	}
	return true
}

// tieBetter orders candidates that arrive at exactly the same time, so the
// surviving event is a function of the candidate set alone, not of the
// order the analysis happened to generate them in. Incremental re-analysis
// replays only part of the propagation order; without a total order on
// ties its results could differ from a from-scratch run by provenance or
// slope while both are "correct". Prefer the more pessimistic slope, then
// the smallest predecessor.
func tieBetter(cand, cur Event) bool {
	if cand.Slope != cur.Slope {
		return cand.Slope > cur.Slope
	}
	if cand.FromNode != cur.FromNode {
		return cand.FromNode < cur.FromNode
	}
	return cand.FromTr < cur.FromTr
}

// improve records a candidate event if it is later than the current one
// (with a deterministic tie-break at equal times), and queues the node for
// propagation. Returns whether it improved.
func (a *Analyzer) improve(node int, tr tech.Transition, ev Event) bool {
	cur := &a.events[node][tr]
	if cur.Valid {
		if ev.T < cur.T {
			a.stats.Earlier++
			return false
		}
		if ev.T == cur.T && !tieBetter(ev, *cur) {
			a.stats.TieLost++
			return false
		}
	}
	if a.cnet.IsRail[node] {
		a.stats.Pruned++
		return false
	}
	// Static pruning: a node pinned at a definite value cannot complete
	// a transition to the opposite value... unless that value came from
	// a precharge assumption (it is exactly what evaluation discharges).
	sv := a.static[node]
	want := switchsim.V1
	if tr == tech.Fall {
		want = switchsim.V0
	}
	if sv != switchsim.VX && sv != want && !a.cnet.Precharged[node] {
		a.stats.Pruned++
		return false
	}
	a.stats.Improved++
	// History: a superseded event that already propagated may still matter
	// downstream — a steeper slope can yield a later consequence than the
	// final (later, shallower) event does, and on a feedback-guarded node
	// the superseding event may never propagate at all (the guard cuts the
	// spin off), leaving the superseded one as the last influence the rest
	// of the chip actually saw. Record every propagated-superseded event,
	// unpruned (see nodeHist), so an incremental re-analysis replays
	// exactly the stream a full run propagated — including its length,
	// which downstream feedback-guard counts depend on. Only a trigger node
	// records: propagating any other node's event evaluates nothing, so
	// nothing downstream ever saw it and no replay will ask for it (a node
	// an edit later turns into a trigger is re-derived, see Reanalyze).
	if cur.Valid {
		h := &a.hist[node][tr]
		if h.propagated && a.triggers[node] {
			a.appendHist(h, cur.T, cur.Slope)
		}
		h.propagated = false
	}
	// An equal-time improvement (slope/provenance tie-break) can reuse a
	// live queue entry: the entry carries only (t, node, tr) and the event
	// payload is read from a.events at pop time, so a duplicate push would
	// just be skipped as stale. Everything else pushes: the queue tolerates
	// stale entries, and a new arrival time needs its own priority.
	samePriority := cur.Valid && ev.T == cur.T && a.queued[node][tr]
	*cur = ev
	if !samePriority {
		a.queued[node][tr] = true
		a.queue.Push(sched.Item{T: ev.T, Node: int32(node), Tr: uint8(tr)})
	}
	return true
}

// transitions is both target transitions in consequence order.
var transitions = [2]tech.Transition{tech.Rise, tech.Fall}

// fanout evaluates every stage the event ev at (node, tr) triggers. The
// event is usually the node's current arrival, but incremental replay
// passes historical ones: superseded events whose steeper slopes a full run
// propagated before they were overwritten.
func (a *Analyzer) fanout(node int, tr tech.Transition, ev Event) {
	if !a.triggers[node] || !ev.Valid {
		// Nothing to evaluate — or a loop break, the user directive to
		// record the arrival and cut the fanout.
		return
	}
	if a.hierSkipNode != nil && node < len(a.hierSkipNode) && a.hierSkipNode[node] {
		return // stamped member interior: timing arrives by stamping
	}

	// 1. Gate consequences, read straight off the database's slabs (each
	// lists its Rise targets, then its Fall targets). A turn-on evaluates
	// every stage through the device. A turn-off releases every node
	// channel-connected to the device — which may now drift toward its
	// remaining drivers (the NAND output released by a mid-stack input sits
	// several hops from the device itself): the release stages of each group
	// member in group order, minus the paths that died with the device.
	cn := a.cnet
	for _, ref := range cn.Gates(node) {
		ti, on1 := netlist.UnpackGateRef(ref)
		if a.hierSkipTrans != nil && int(ti) < len(a.hierSkipTrans) && a.hierSkipTrans[ti] {
			continue // stamped member device
		}
		if (tr == tech.Rise) == on1 {
			a.applySlab(a.db.Through(int(ti)), -1, node, tr, ev)
		} else {
			for _, m := range a.db.Group(int(ti)) {
				a.applySlab(a.db.Release(int(m)), int(ti), node, tr, ev)
			}
		}
	}

	// 2. Channel consequences: an externally seeded input's own level
	// change rides through already-conducting pass devices. Internal
	// nodes do NOT re-propagate through the channel graph here — the
	// stages that produced their events already targeted every node of
	// the driven group, and re-propagating would bounce arrivals back
	// and forth across channel-connected pairs forever.
	if cn.IsInput[node] && cn.HasTerms[node] {
		a.applySlab(a.db.From(node, tr), -1, node, tr, ev)
	}
}

// applySlab applies every stage of one enumeration result, skipping those
// whose path runs through transistor `without` (-1: none).
func (a *Analyzer) applySlab(sl *stage.Slab, without, fromNode int, fromTr tech.Transition, ev Event) {
	if sl.Truncated {
		a.Truncated = true
	}
	for i := range sl.Stages {
		st := &sl.Stages[i]
		if without >= 0 && st.UsesTrans(without) {
			continue
		}
		a.applyStage(st, fromNode, fromTr, ev)
	}
}

// StageDB returns the stage database this analysis used (available after
// Run). Hand it to Options.DB of a later analyzer over the same network
// and sensitization — e.g. the same circuit under a different delay model
// — to skip re-enumerating every stage. A database belongs to one analysis
// at a time: hand it to a later analyzer, never to one that runs alongside
// this one.
func (a *Analyzer) StageDB() *stage.DB { return a.db }

// stageStamp digests everything stage enumeration depends on: the static
// sensitization values (the enumeration bounds are stage.Options' defaults
// for every analyzer). Two analyses with equal stamps over the same
// network enumerate identical stages, so they may share one stage database.
func (a *Analyzer) stageStamp() (stamp [sha256.Size]byte) {
	h := sha256.New()
	var buf [512]byte
	for rest := a.static; len(rest) > 0; {
		n := min(len(rest), len(buf))
		for i, v := range rest[:n] {
			buf[i] = byte(v)
		}
		h.Write(buf[:n])
		rest = rest[n:]
	}
	h.Sum(stamp[:0])
	return stamp
}

// StaticValue returns the settled static value of n that the analysis
// sensitized its stages with (available after Run).
func (a *Analyzer) StaticValue(n *netlist.Node) switchsim.Value { return a.static[n.Index] }

// applyStage evaluates one stage against the triggering event and offers
// the resulting arrival to the stage target.
func (a *Analyzer) applyStage(st *stage.Stage, fromNode int, fromTr tech.Transition, ev Event) {
	target := int(st.Target)
	if a.hierSkipNode != nil && target < len(a.hierSkipNode) && a.hierSkipNode[target] {
		return // stamped member interior: boundary fan-in is replayed by the representative
	}
	if a.incDirty != nil && !a.incDirty.NodeDirty(target) {
		return // incremental drain, clean target: already at its fixpoint (see runIncremental)
	}
	// Source validity: an input-fed stage needs the source to plausibly
	// hold the driving value; rails were filtered by the enumerator.
	if si := st.SourceInputIndex(); si >= 0 {
		sv := a.static[si]
		want := switchsim.V1
		if st.Transition() == tech.Fall {
			want = switchsim.V0
		}
		if sv != switchsim.VX && sv != want {
			return
		}
	}
	a.stageEv++
	r := a.Model.Evaluate(a.Net, st, ev.Slope)
	if math.IsNaN(r.Delay) || r.Delay < 0 {
		return
	}
	a.improve(target, st.Transition(), Event{
		T:        ev.T + r.Delay,
		Slope:    r.Slope,
		Valid:    true,
		FromNode: int32(fromNode),
		FromTr:   fromTr,
		Via:      st,
	})
}

// Hop is one step of a traced critical path.
type Hop struct {
	Node  *netlist.Node
	Tr    tech.Transition
	Event Event
}

// Path is a traced critical path, listed from the seeding input to the
// endpoint.
type Path struct {
	Hops []Hop
}

// End returns the endpoint hop.
func (p *Path) End() Hop { return p.Hops[len(p.Hops)-1] }

// Trace reconstructs the worst-case path ending at (n, tr), or nil if the
// node has no arrival. Every hop's Via names the hop node's own nets and
// devices, stamped or not.
func (a *Analyzer) Trace(n *netlist.Node, tr tech.Transition) *Path {
	ev := a.Arrival(n, tr)
	if !ev.Valid {
		return nil
	}
	var rev []Hop
	node, t := n.Index, tr
	seen := make(map[qkey]bool)
	for {
		k := qkey{node, t}
		if seen[k] {
			// Provenance cycle (possible when the feedback guard fired
			// mid-analysis): truncate the trace here.
			break
		}
		seen[k] = true
		e := a.events[node][t]
		if a.hier != nil && e.Via != nil {
			e.Via = a.hier.remapVia(node, e.Via)
		}
		rev = append(rev, Hop{a.Net.Nodes[node], t, e})
		if e.FromNode < 0 {
			break
		}
		node, t = int(e.FromNode), e.FromTr
	}
	p := &Path{Hops: make([]Hop, len(rev))}
	for i, h := range rev {
		p.Hops[len(rev)-1-i] = h
	}
	return p
}

// endpoint is one candidate of the critical-path ranking: an endpoint
// node's valid arrival for one transition.
type endpoint struct {
	n  *netlist.Node
	tr tech.Transition
	t  float64
}

// compare orders the ranking: later arrival first, then node name, then
// transition. Node names are unique, so the order is strict and the
// ranking does not depend on the order endpoints are found in.
func (x endpoint) compare(y endpoint) int {
	return cmp.Or(cmp.Compare(y.t, x.t), strings.Compare(x.n.Name, y.n.Name), cmp.Compare(x.tr, y.tr))
}

// endpoints returns the watched outputs if any are marked, otherwise every
// non-rail, non-input node.
func (a *Analyzer) endpoints() []*netlist.Node {
	if outs := a.Net.Outputs(); len(outs) > 0 {
		return outs
	}
	var ends []*netlist.Node
	for _, n := range a.Net.Nodes {
		if !n.IsRail() && n.Kind != netlist.KindInput {
			ends = append(ends, n)
		}
	}
	return ends
}

// CriticalPaths returns the k latest-arriving endpoint events, traced.
// Endpoints are the watched outputs if any are marked, otherwise every
// non-rail node. k <= 0 returns every endpoint event.
func (a *Analyzer) CriticalPaths(k int) []*Path {
	var cs []endpoint
	for _, n := range a.endpoints() {
		for _, tr := range transitions {
			if ev := a.Arrival(n, tr); ev.Valid {
				cs = append(cs, endpoint{n, tr, ev.T})
			}
		}
	}
	slices.SortFunc(cs, endpoint.compare)
	if k > 0 && len(cs) > k {
		cs = cs[:k]
	}
	var out []*Path
	for _, c := range cs {
		out = append(out, a.Trace(c.n, c.tr))
	}
	return out
}
