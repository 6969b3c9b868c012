// The shared network arena: one read-only memory-mapped netlist view
// serving every session of the same chip. Session state (analyzer,
// stage DB, arrivals) is per-session, but the network itself — nodes,
// transistors, adjacency, the mapped name payload — is identical for
// every session over the same (source, technology, name) triple, so the
// arena hands all of them one immutable *netlist.Network built over one
// mapping. N sessions of a chip then cost one network plus N analyzers
// instead of N of both, and the mapped pages themselves are page-cache
// backed (shared machine-wide).
//
// Copy-on-edit: sessions never write through the shared view. The first
// edit barrier runs the incremental engine, whose first Reanalyze clones
// the network before touching it (later ones edit that clone in place);
// the session then detaches — swaps its pointer to the private clone and
// drops its arena reference. The arena's job is bookkeeping, not
// enforcement; the clone discipline is the incremental engine's contract.
//
// Lifetime: mappings are never unmapped, even at zero references — node
// name strings alias the mapped pages and escape into reports, clones
// and analysis results whose lifetime the server cannot bound. A
// zero-ref entry stays resident to serve the next session of the same
// chip; the cost is address space and page-cache pages the OS reclaims
// under pressure, not wired heap (docs/SERVER.md covers the RSS
// accounting consequences).
package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// arenaKey identifies one shareable network: the SHA-256 of its .sim
// source plus the technology and report name (both also baked into the
// snapshot file and validated on load).
type arenaKey struct {
	simHash [32]byte
	tech    string
	name    string
}

type arenaEntry struct {
	m    *netlist.Mapped
	refs int // sessions currently aliasing the view
}

// netArena is the session-shared mapping table. All methods are safe
// for concurrent use.
type netArena struct {
	mu       sync.Mutex
	entries  map[arenaKey]*arenaEntry
	detaches atomic.Int64 // sessions that copy-on-edit detached
}

func newNetArena() *netArena {
	return &netArena{entries: make(map[arenaKey]*arenaEntry)}
}

// load returns the network for key: the resident shared view when one
// exists, else whatever netlist.LoadCached makes of the snapshot file at
// path (empty = no cache) and build — and when that is a fresh mapping
// it becomes the resident view. res.Mapped is non-nil exactly when the
// caller now holds an arena reference to release. The lock is not held
// across the load, so a cold parse of one chip never stalls creates of
// another; two creates racing to map the same chip both succeed and the
// later one adopts the earlier's view.
func (a *netArena) load(path string, key arenaKey, p *tech.Params, build func() (*netlist.Network, error)) (*netlist.Network, netlist.LoadResult, error) {
	a.mu.Lock()
	e, ok := a.entries[key]
	if ok {
		e.refs++
	}
	a.mu.Unlock()
	if ok {
		return e.m.Net, netlist.LoadResult{Source: netlist.SourceMmap, Mapped: e.m}, nil
	}
	nw, res, err := netlist.LoadCached(path, key.name, p, key.simHash, build)
	if res.Mapped == nil {
		return nw, res, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.entries[key]; ok {
		res.Mapped.Close() // lost the race: our view never escaped, unmapping is safe
		e.refs++
		res.Mapped = e.m
		return e.m.Net, res, nil
	}
	a.entries[key] = &arenaEntry{m: res.Mapped, refs: 1}
	return nw, res, nil
}

// release drops one session's reference. The entry (and mapping) stays
// resident at zero refs — see the package comment on lifetime.
func (a *netArena) release(key arenaKey) {
	a.mu.Lock()
	if e, ok := a.entries[key]; ok && e.refs > 0 {
		e.refs--
	}
	a.mu.Unlock()
}

// detach is release plus the copy-on-edit counter: the session has
// swapped to a private clone after its first edit barrier.
func (a *netArena) detach(key arenaKey) {
	a.detaches.Add(1)
	a.release(key)
}

// ArenaStats is the netarena.* gauge set served at /metrics.
type ArenaStats struct {
	// Mappings counts resident mapped files (including zero-ref ones
	// kept alive for reuse and string safety).
	Mappings int64 `json:"mappings"`
	// SharedSessions counts live sessions currently aliasing a view.
	SharedSessions int64 `json:"shared_sessions"`
	// ResidentBytes totals the mapped file bytes — address space, not
	// wired RSS; the pages are file-backed and OS-reclaimable.
	ResidentBytes int64 `json:"resident_bytes"`
	// Detaches counts copy-on-edit detaches over the daemon lifetime.
	Detaches int64 `json:"detaches"`
}

func (a *netArena) stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArenaStats{Detaches: a.detaches.Load()}
	for _, e := range a.entries {
		st.Mappings++
		st.SharedSessions += int64(e.refs)
		st.ResidentBytes += int64(e.m.Size())
	}
	return st
}
