// The shared network arena: one read-only netlist.Network serving every
// session of the same chip. Session state (analyzer, stage DB, arrivals)
// is per-session, but the network itself — nodes, transistors,
// adjacency, names — is identical for every session over the same
// (source, technology, name) triple, so the arena hands all of them one
// immutable *netlist.Network decoded from the chip's snapshot. N
// sessions of a chip then cost one network plus N analyzers instead of
// N of both. Only snapshot-cache hits are shared; a parse stays private
// to the session that ran it.
//
// Copy-on-edit: sessions never write through the shared network. The
// first edit barrier runs the incremental engine, whose first Reanalyze
// clones the network before touching it (later ones edit that clone in
// place); the session then detaches — swaps its pointer to the private
// clone and drops its arena reference. The arena's job is bookkeeping,
// not enforcement; the clone discipline is the incremental engine's
// contract.
//
// Lifetime: an entry lives while a session holds a reference to it and
// is forgotten when the last one is released; the collector reclaims
// the network once no in-flight job still reads it.
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
	nw   *netlist.Network
	refs int // sessions currently sharing the network
}

// netArena is the session-shared network table. All methods are safe
// for concurrent use.
type netArena struct {
	mu       sync.Mutex
	entries  map[arenaKey]*arenaEntry
	detaches atomic.Int64 // sessions that copy-on-edit detached
}

func newNetArena() *netArena {
	return &netArena{entries: make(map[arenaKey]*arenaEntry)}
}

// load returns the network for key: the shared one when a session holds
// it, else whatever netlist.LoadCached makes of the snapshot file at
// path (empty = no cache) and build — and when that is a snapshot hit
// it becomes the shared network. res.FromCache() reports exactly that
// the caller now holds an arena reference to release. The lock is not held across the
// load, so a cold parse of one chip never stalls creates of another;
// two creates racing to read the same chip both succeed and the later
// one adopts the earlier's network.
func (a *netArena) load(path string, key arenaKey, p *tech.Params, build func() (*netlist.Network, error)) (*netlist.Network, netlist.LoadResult, error) {
	a.mu.Lock()
	e, ok := a.entries[key]
	if ok {
		e.refs++
	}
	a.mu.Unlock()
	if ok {
		return e.nw, netlist.LoadResult{Source: netlist.SourceSnapshot}, nil
	}
	nw, res, err := netlist.LoadCached(path, key.name, p, key.simHash, build)
	if !res.FromCache() {
		return nw, res, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.entries[key]; ok {
		e.refs++
		return e.nw, res, nil
	}
	a.entries[key] = &arenaEntry{nw: nw, refs: 1}
	return nw, res, nil
}

// release drops one session's reference; the last one forgets the entry.
func (a *netArena) release(key arenaKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.entries[key]; ok {
		if e.refs--; e.refs == 0 {
			delete(a.entries, key)
		}
	}
}

// detach is release plus the copy-on-edit counter: the session has
// swapped to a private clone after its first edit barrier.
func (a *netArena) detach(key arenaKey) {
	a.detaches.Add(1)
	a.release(key)
}

// ArenaStats is the netarena.* gauge set served at /metrics.
type ArenaStats struct {
	// SharedSessions counts live sessions currently sharing a network.
	SharedSessions int64 `json:"shared_sessions"`
	// Detaches counts copy-on-edit detaches over the daemon lifetime.
	Detaches int64 `json:"detaches"`
}

func (a *netArena) stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArenaStats{Detaches: a.detaches.Load()}
	for _, e := range a.entries {
		st.SharedSessions += int64(e.refs)
	}
	return st
}
