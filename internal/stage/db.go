// The stage database: a shareable index of every stage the analyzer can
// ask for over one (network, sensitization) pair. Stage enumeration is
// static during an analysis — a trigger's stages never change — so the
// results are memoized here, slice-indexed by element index instead of
// hashed. A slot is one atomic pointer: nil until some analysis
// first asks, then the immutable Slab installed by compare-and-swap, so any
// number of concurrent analyses share one database without locking on the
// hot path.
//
// Databases are generational: an edit epoch never resets a slot in place.
// Derive builds the next generation over the edited network by copying the
// slot pointers of untouched channel-connected groups and leaving the
// dirty ones nil. Slabs hold indexes, not pointers into a network, so a
// superseded generation — database and network — is collectable as soon as
// its readers finish, whatever it shares with its successors.
package stage

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// DB is the shared stage database for one network under one sensitization
// oracle. Entries are built lazily on first access and are immutable
// afterwards; every accessor is safe for concurrent use. A DB built by one
// analysis run can be handed to later runs over the same network with the
// same static sensitization (core checks the Stamp before accepting one).
type DB struct {
	nw  *netlist.Network
	opt Options

	// Stamp identifies the sensitization state the database was built
	// under (the caller encodes static node values and enumeration
	// bounds). Consumers must not share a DB across different stamps.
	Stamp string
	// Epoch counts edit generations: 0 for a fresh database, predecessor
	// epoch + 1 for one built by Derive. Diagnostics only — correctness
	// comes from each generation owning its own immutable network.
	Epoch uint64

	// A device's or a node's consequences are always consulted for both
	// target transitions, so each is one slab, Rise stages then Fall.
	through []slot[Slab]    // trans → stages through the device
	release []slot[Slab]    // node → stages driving the node
	from    []slot[Slab]    // 2·node+transition → stages fanning out of the node
	groups  []slot[[]int32] // trans → channel-connected group (node indexes)

	// capsOnce/caps snapshot NodeCap over the whole (immutable) network on
	// first enumeration, so stage construction — which reads node loading
	// once per path node and once per side branch, across hundreds of
	// thousands of stages — indexes a float array instead of re-walking
	// adjacency lists.
	capsOnce sync.Once
	caps     []float64

	truncated atomic.Bool
}

// slot is one lazily filled database entry: nil until some analysis first
// asks, then an immutable value installed by compare-and-swap — an
// atomic.Pointer, plus init: a plain store for Derive, which fills the slot
// tables of a database no other goroutine can see yet.
type slot[T any] struct{ p unsafe.Pointer }

func (s *slot[T]) Load() *T { return (*T)(atomic.LoadPointer(&s.p)) }

func (s *slot[T]) CompareAndSwap(old, new *T) bool {
	return atomic.CompareAndSwapPointer(&s.p, unsafe.Pointer(old), unsafe.Pointer(new))
}

func (s *slot[T]) init(v *T) { s.p = unsafe.Pointer(v) }

// NewDB creates an empty database for the network. opt.Oracle fixes the
// sensitization for every enumeration the database will ever perform.
func NewDB(nw *netlist.Network, opt Options) *DB {
	return &DB{
		nw:      nw,
		opt:     opt.Fill(),
		through: make([]slot[Slab], len(nw.Trans)),
		release: make([]slot[Slab], len(nw.Nodes)),
		from:    make([]slot[Slab], 2*len(nw.Nodes)),
		groups:  make([]slot[[]int32], len(nw.Trans)),
	}
}

// Network returns the network the database indexes.
func (db *DB) Network() *netlist.Network { return db.nw }

// Truncated reports whether any enumeration performed so far hit the
// MaxPaths/MaxDepth caps. With a shared database this is cumulative over
// every analysis that touched it.
func (db *DB) Truncated() bool { return db.truncated.Load() }

// enumOpt returns the enumeration options with the node-capacitance
// snapshot installed (built on first use — the network is immutable for
// the database's lifetime, so one sweep serves every enumeration).
func (db *DB) enumOpt() Options {
	db.capsOnce.Do(func() {
		caps := make([]float64, len(db.nw.Nodes))
		for i, n := range db.nw.Nodes {
			caps[i] = db.nw.NodeCap(n)
		}
		db.caps = caps
	})
	o := db.opt
	o.caps = db.caps
	return o
}

// install publishes a freshly enumerated slab in slot, or adopts the one a
// concurrent caller got there first with (the two are equal by value;
// everyone must agree on one so provenance pointers compare).
func (db *DB) install(slot *slot[Slab], s *Slab) *Slab {
	if s.Truncated {
		db.truncated.Store(true)
	}
	if slot.CompareAndSwap(nil, s) {
		return s
	}
	return slot.Load()
}

// Through returns the stages created when transistor ti becomes
// conducting: those targeting Rise, then those targeting Fall.
func (db *DB) Through(ti int) *Slab {
	slot := &db.through[ti]
	if s := slot.Load(); s != nil {
		return s
	}
	return db.install(slot, through(db.nw, db.nw.Trans[ti], db.enumOpt(), tech.Rise, tech.Fall))
}

// Release returns the stages that could drive node ni (the paths a
// released node may move along): those raising it, then those lowering it.
func (db *DB) Release(ni int) *Slab {
	slot := &db.release[ni]
	if s := slot.Load(); s != nil {
		return s
	}
	return db.install(slot, toNode(db.nw, db.nw.Nodes[ni], db.enumOpt(), tech.Rise, tech.Fall))
}

// From returns the stages created when node ni itself transitions (an
// input event riding through conducting pass devices).
func (db *DB) From(ni int, tr tech.Transition) *Slab {
	slot := &db.from[2*ni+int(tr)]
	if s := slot.Load(); s != nil {
		return s
	}
	return db.install(slot, fromNode(db.nw, db.nw.Nodes[ni], tr, db.enumOpt()))
}

// TurnOnIdx lists the stages created when transistor ti becomes conducting,
// for both target transitions (Rise stages first), plus truncation — the
// consequence list of a turn-on, materialized for tools that want to hold
// stages; the analyzer walks the Through slab directly.
func (db *DB) TurnOnIdx(ti int) ([]*Stage, bool) {
	res := db.Through(ti).result()
	return res.Stages, res.Truncated
}

// Group returns the indexes of the non-source nodes channel-connected to
// either terminal of transistor ti through possibly-conducting transistors
// (ti itself excluded), without expanding through strong sources — the set
// of nodes a turn-off of ti releases. A turn-off's consequence list is the
// Release slabs of these nodes in order, minus the stages whose path runs
// through ti (those died with the device).
func (db *DB) Group(ti int) []int32 {
	slot := &db.groups[ti]
	if g := slot.Load(); g != nil {
		return *g
	}
	g := channelGroup(db.nw, db.nw.Trans[ti], db.opt.Oracle)
	if !slot.CompareAndSwap(nil, &g) {
		g = *slot.Load()
	}
	return g
}

// Derive builds the next-generation database over the edited network nw
// (a distinct object from this database's network — edits never mutate a
// generation an analysis has seen). Slots of untouched indexes are copied
// from this database: one already built keeps its slab; one still unbuilt
// is enumerated by whichever generation asks, and because the clean
// channel-connected groups are structurally identical in both networks the
// resulting stage values are the same either way. Dirty indexes stay nil.
//
//   - opt supplies the new generation's sensitization oracle (the caller
//     re-settles statics after the edit) and must keep the same
//     enumeration bounds.
//   - dirtyTrans / dirtyNode are indexed by the NEW network's indexes;
//     true means the entry must be re-enumerated.
//   - oldTrans maps new transistor indexes to this generation's indexes
//     (-1 for transistors that did not exist before). Node indexes are
//     stable across edits, so nodes need no map — new nodes are simply
//     beyond the old range.
//
// The caller sets Stamp. Concurrent readers of the receiver are
// unaffected: Derive only loads slot pointers (atomically — they may be
// installing), and stores them plainly into the new database, which nobody
// else can see until Derive returns.
func (db *DB) Derive(nw *netlist.Network, opt Options, dirtyTrans, dirtyNode []bool, oldTrans []int) *DB {
	next := NewDB(nw, opt)
	next.Epoch = db.Epoch + 1
	// Conservative: a truncated enumeration in a shared entry stays
	// truncated in the new generation.
	if db.truncated.Load() {
		next.truncated.Store(true)
	}
	for j := range nw.Trans {
		old := -1
		if j < len(oldTrans) {
			old = oldTrans[j]
		}
		if old < 0 || (j < len(dirtyTrans) && dirtyTrans[j]) {
			continue
		}
		next.through[j].init(db.through[old].Load())
		next.groups[j].init(db.groups[old].Load())
	}
	oldNodes := len(db.nw.Nodes)
	for j := range nw.Nodes {
		if j >= oldNodes || (j < len(dirtyNode) && dirtyNode[j]) {
			continue
		}
		next.release[j].init(db.release[j].Load())
		next.from[2*j].init(db.from[2*j].Load())
		next.from[2*j+1].init(db.from[2*j+1].Load())
	}
	return next
}

// groupScratch is the recycled working set of channelGroup: visited marks
// and the BFS queue. On a chip-scale network fresh per-call slices are tens
// of kilobytes times tens of thousands of groups, all garbage.
type groupScratch struct {
	seen []bool
	q    []int32
}

var groupPool sync.Pool

// channelGroup walks the channel graph from t's terminals.
func channelGroup(nw *netlist.Network, t *netlist.Trans, oracle Oracle) []int32 {
	s, _ := groupPool.Get().(*groupScratch)
	if s == nil {
		s = &groupScratch{}
	}
	if len(s.seen) < len(nw.Nodes) {
		s.seen = make([]bool, len(nw.Nodes))
	}
	seen, q := s.seen, s.q[:0]
	for _, m := range []*netlist.Node{t.A, t.B} {
		if m != nil && !m.IsSource() && !seen[m.Index] {
			seen[m.Index] = true
			q = append(q, int32(m.Index))
		}
	}
	// The queue is never consumed, only walked: it ends up holding the
	// members in visit order, which is the group.
	for qi := 0; qi < len(q); qi++ {
		n := nw.Nodes[q[qi]]
		for _, tr := range n.Terms {
			if tr == t {
				continue
			}
			if oracle(tr) == Off {
				continue
			}
			o := tr.Other(n)
			if o == nil || seen[o.Index] || o.IsSource() {
				continue
			}
			seen[o.Index] = true
			q = append(q, int32(o.Index))
		}
	}
	// The true marks are exactly the group members: clear those and
	// recycle, far cheaper than zeroing the whole slice.
	for _, i := range q {
		seen[i] = false
	}
	out := append(make([]int32, 0, len(q)), q...)
	s.q = q
	groupPool.Put(s)
	return out
}

// Prewarm eagerly builds every entry an analysis can touch, serially: the
// closure matches the analyzer's access pattern — through-stages and channel
// groups for every gated device, release stages for every group member, and
// fan-out stages for every input with channel terminals. Analyses never call
// it; entries are built lazily on first access.
//
// Deprecated: workers is ignored; kept because bench/probes.go calls Prewarm(1).
func (db *DB) Prewarm(workers int) {
	for i, t := range db.nw.Trans {
		if t.AlwaysOn() {
			continue
		}
		db.Through(i)
		for _, m := range db.Group(i) {
			db.Release(int(m))
		}
	}
	for _, n := range db.nw.Inputs() {
		if len(n.Terms) > 0 {
			db.From(n.Index, tech.Rise)
			db.From(n.Index, tech.Fall)
		}
	}
}
