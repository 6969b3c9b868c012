// The stage database: an index of every stage the analyzer can ask for
// over one (network, sensitization) pair. Stage enumeration is static
// during an analysis — a trigger's stages never change — so the results are
// memoized here, slice-indexed by element index instead of hashed. A slot
// is one pointer: nil until the analysis first asks, then the immutable
// Slab it was handed.
//
// A database follows its network's edit generations. Advance moves it to
// the next one in place: the slots of untouched channel-connected groups
// keep their slabs, the dirty ones go back to nil, transistor slots follow
// the batch's index map, and a kept enumeration view re-reads only what
// the batch changed. Derive is the same step applied to a copy, for a
// database other analyses may still read; the original is left as it was.
// Slabs hold indexes, not pointers into a network, so a slab a reset drops
// is collectable as soon as its readers finish.
package stage

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// DB is the stage database for one network under one sensitization
// oracle. Entries are built lazily on first access and are immutable
// afterwards, except for the delay constants the models keep in each
// record. A database and its records belong to one analysis at a time:
// nothing here synchronizes, so no two goroutines may use one database (or
// two generations sharing slabs) at once. A DB built by one analysis run
// can be handed to a later run over the same network with the same static
// sensitization (core checks the Stamp before accepting one).
type DB struct {
	nw  *netlist.Network
	opt Options

	// Stamp identifies the sensitization state the database was built
	// under (the caller encodes static node values and enumeration
	// bounds). Consumers must not share a DB across different stamps.
	Stamp string
	// Epoch counts edit generations: 0 for a fresh database, one more for
	// each Advance (or Derive). Diagnostics only — which network state a
	// database describes is its network and Generation.
	Epoch uint64

	// A device's or a node's consequences are always consulted for both
	// target transitions, so each is one slab, Rise stages then Fall.
	through []*Slab    // trans → stages through the device
	release []*Slab    // node → stages driving the node
	from    []*Slab    // 2·node+transition → stages fanning out of the node
	groups  []*[]int32 // trans → channel-connected group (node indexes)

	// v holds what enumeration reads of the network, built on first
	// enumeration: the compiled adjacency (cn, when SetCompiled handed
	// one), per-device conduction and per-node loading, so stage
	// construction indexes arrays instead of asking the oracle per edge and
	// re-walking adjacency lists per node. SetCompiled drops it when the
	// compile changes; Advance patches it while the compile stands.
	v  *view
	cn *netlist.Compact

	truncated bool
	gen       uint64 // nw's edit generation when the database was made
}

// NewDB creates an empty database for the network. opt.Oracle fixes the
// sensitization for every enumeration the database will ever perform. The
// database compiles nw on its first enumeration unless SetCompiled hands it
// a compile first.
func NewDB(nw *netlist.Network, opt Options) *DB {
	return &DB{
		nw:      nw,
		gen:     nw.Generation(),
		opt:     opt.Fill(),
		through: make([]*Slab, len(nw.Trans)),
		release: make([]*Slab, len(nw.Nodes)),
		from:    make([]*Slab, 2*len(nw.Nodes)),
		groups:  make([]*[]int32, len(nw.Trans)),
	}
}

// Network returns the network the database indexes.
func (db *DB) Network() *netlist.Network { return db.nw }

// Generation returns the edit generation of Network the database describes
// (netlist.Network.Generation). Once the network has moved past it, the
// database is a predecessor only Derive may read.
func (db *DB) Generation() uint64 { return db.gen }

// Truncated reports whether any enumeration performed so far hit the
// MaxPaths/MaxDepth caps. A database handed from run to run accumulates it
// over every analysis that touched it.
func (db *DB) Truncated() bool { return db.truncated }

// view returns the enumeration view, building it on first use.
func (db *DB) view() *view {
	if db.v == nil {
		db.v = newView(db.nw, db.cn, db.opt)
	}
	return db.v
}

// SetCompiled hands the database cn, its network's compile, for
// enumeration to read. A compile other than the one it holds drops the view
// built so far; the next enumeration rebuilds it. An analysis hands the
// database its own compile, so nothing is compiled twice. A finished
// analysis reads slabs, never the view, so one that will not edit again
// passes nil when its drain returns and the compile, the conduction array
// and the caps snapshot go (a view rebuilt without a compile compiles the
// network itself); an editing analysis keeps both for Advance to patch.
func (db *DB) SetCompiled(cn *netlist.Compact) {
	if cn == nil || cn != db.cn {
		db.v, db.cn = nil, cn
	}
}

// install stores a freshly enumerated slab in slot.
func (db *DB) install(slot **Slab, s *Slab) *Slab {
	db.truncated = db.truncated || s.Truncated
	*slot = s
	return s
}

// Through returns the stages created when transistor ti becomes
// conducting: those targeting Rise, then those targeting Fall.
func (db *DB) Through(ti int) *Slab {
	if s := db.through[ti]; s != nil {
		return s
	}
	return db.install(&db.through[ti], db.view().enumerate((*builder).through, int32(ti), tech.Rise, tech.Fall))
}

// Release returns the stages that could drive node ni (the paths a
// released node may move along): those raising it, then those lowering it.
func (db *DB) Release(ni int) *Slab {
	if s := db.release[ni]; s != nil {
		return s
	}
	return db.install(&db.release[ni], db.view().enumerate((*builder).toNode, int32(ni), tech.Rise, tech.Fall))
}

// From returns the stages created when node ni itself transitions (an
// input event riding through conducting pass devices).
func (db *DB) From(ni int, tr tech.Transition) *Slab {
	slot := &db.from[2*ni+int(tr)]
	if s := *slot; s != nil {
		return s
	}
	return db.install(slot, db.view().enumerate((*builder).fromNode, int32(ni), tr))
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
	if g := db.groups[ti]; g != nil {
		return *g
	}
	g := newBuilder(db.view()).group(int32(ti))
	db.groups[ti] = &g
	return g
}

// Changes is what one edit batch changed, in the terms Advance reads.
// Indexes are the new generation's.
type Changes struct {
	// OldTrans maps each transistor index to the previous generation's
	// (-1 for a device the batch added); nil maps every index to itself.
	// Every entry other than its own index and -1 must be greater than its
	// index — a device a removal moved down from the end — which is what
	// lets Advance remap in place (incremental.Result.OldTrans is so).
	OldTrans []int
	// Trans and Nodes list the transistors and nodes whose entries are
	// stale: their channel-connected group's structure or sensitization
	// changed. New indexes need not be listed.
	Trans, Nodes []int
	// Conduction lists the devices the new oracle may answer differently
	// for, and Loaded the nodes whose loading (Network.NodeCap) may have
	// changed: what a kept enumeration view re-reads.
	Conduction, Loaded []int
}

// Advance moves the database, in place, to the next generation of its
// network: nw, the same network edited in place or a clone of it that the
// database will index from now on. Slots of untouched indexes keep their
// slabs — one already built stays, one unbuilt is enumerated when asked,
// and because the clean channel-connected groups are structurally
// identical before and after the batch the stage values are the same
// either way. Transistor slots follow ch.OldTrans, and the stale slots go
// back to nil.
//
// opt supplies the new generation's sensitization oracle (the caller
// re-settles statics after the edit); it must keep the same enumeration
// bounds. A kept enumeration view re-reads ch.Conduction and ch.Loaded;
// it survives only over a compile handed by SetCompiled, and the caller
// hands a new one first when the batch changed anything the compile holds,
// which drops the view. The caller sets Stamp.
func (db *DB) Advance(nw *netlist.Network, opt Options, ch Changes) {
	if nt := len(nw.Trans); ch.OldTrans != nil {
		// Ascending is safe: a remapped entry reads a higher slot, which
		// no earlier step wrote.
		db.through = resize(db.through, max(nt, len(db.through)))
		db.groups = resize(db.groups, max(nt, len(db.groups)))
		for j, old := range ch.OldTrans {
			switch {
			case old == j:
			case old < 0:
				db.through[j], db.groups[j] = nil, nil
			default:
				db.through[j], db.groups[j] = db.through[old], db.groups[old]
			}
		}
		clear(db.through[nt:])
		clear(db.groups[nt:])
		db.through, db.groups = db.through[:nt], db.groups[:nt]
	}
	for _, j := range ch.Trans {
		db.through[j], db.groups[j] = nil, nil
	}
	db.release = resize(db.release, len(nw.Nodes))
	db.from = resize(db.from, 2*len(nw.Nodes))
	for _, j := range ch.Nodes {
		db.release[j], db.from[2*j], db.from[2*j+1] = nil, nil, nil
	}
	db.nw, db.opt, db.gen = nw, opt.Fill(), nw.Generation()
	db.Epoch++
	if db.cn == nil {
		db.v = nil // a view that compiled the network itself cannot tell whether its compile stands
	}
	if v := db.v; v != nil {
		v.nw = nw
		for _, j := range ch.Conduction {
			v.cond[j] = db.opt.Oracle(nw.Trans[j])
		}
		// Once per node: a batch of resizes names a rail many times, and a
		// rail's load sums every device it touches.
		loaded := slices.Clone(ch.Loaded)
		slices.Sort(loaded)
		for _, j := range slices.Compact(loaded) {
			v.caps[j] = nw.NodeCap(nw.Nodes[j])
		}
	}
}

// resize returns s at length n: the same array when it fits (the slots
// past len(s) are nil: Advance clears what it truncates), else a new array
// of exactly n slots. A resident database keeps no slack: growing is rare
// (a batch that adds devices or nodes), and append's headroom would stay
// with the database for good.
func resize[T any](s []*T, n int) []*T {
	if n <= cap(s) {
		return s[:n]
	}
	grown := make([]*T, n)
	copy(grown, s)
	return grown
}

// Derive returns the next-generation database over nw — a clone of this
// database's network, or the same network edited in place since — as a
// copy of this one advanced by ch (see Advance). The copy shares every
// slab but no slot, and holds no view; this database is left as it was
// (Derive reads nothing of its network, only its slots), so analyses
// still reading it keep their generation. The two share slabs, so the
// one-analysis-at-a-time rule covers both of them together.
func (db *DB) Derive(nw *netlist.Network, opt Options, ch Changes) *DB {
	next := &DB{
		nw:      db.nw,
		opt:     db.opt,
		Epoch:   db.Epoch,
		through: slices.Clone(db.through),
		release: slices.Clone(db.release),
		from:    slices.Clone(db.from),
		groups:  slices.Clone(db.groups),
		// Conservative: a truncated enumeration in a shared entry stays
		// truncated in the new generation.
		truncated: db.truncated,
	}
	next.Advance(nw, opt, ch)
	return next
}

// CheckView reports whether the database's kept enumeration view differs
// from one built fresh over its network and oracle (nil when they agree or
// it keeps no view). It is for tests of Advance's patching.
func (db *DB) CheckView() error {
	if db.v == nil {
		return nil
	}
	want := newView(db.nw, db.v.cn, db.opt)
	if !slices.Equal(db.v.cond, want.cond) {
		return fmt.Errorf("stage: the view's device conduction is stale")
	}
	if !slices.Equal(db.v.caps, want.caps) {
		return fmt.Errorf("stage: the view's node loads are stale")
	}
	return nil
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
	cn := db.view().cn
	for n, in := range cn.IsInput {
		if in && cn.HasTerms[n] {
			db.From(n, tech.Rise)
			db.From(n, tech.Fall)
		}
	}
}
