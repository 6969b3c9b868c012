// Sessions: one loaded netlist plus its resident analysis state. A
// session is the unit the LRU cache holds — parsed network, compiled
// netlist.Compact view, stage.DB generations and arrival cones all live
// inside the analyzer, so a cache hit skips straight to the incremental
// engine.
//
// Concurrency model: per-session single writer. Every request that
// touches the analyzer, its network or the batch engine (analyze, edits,
// simulate) is a job, and the job plane runs one job per session at a
// time, in submission order — that slot is the session's only lock. Read
// requests never touch the analyzer or the network at all: they load the
// snapshot, network counts and barrier count published atomically after
// each (re)analysis, so a slow drain never blocks a /critical probe and a
// half-applied batch is never observable.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/charlib"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// SessionConfig is the POST /v1/sessions request body: the .sim source
// plus the same analysis directives the crystal CLI takes.
type SessionConfig struct {
	// Name labels the network in reports (default "netlist").
	Name string `json:"name,omitempty"`
	// Sim is the .sim netlist source (required).
	Sim string `json:"sim"`
	// Tech selects the technology: nmos-4u (default) or cmos-3u.
	Tech string `json:"tech,omitempty"`
	// Model selects the delay model: lumped, rc or slope (default slope).
	Model string `json:"model,omitempty"`
	// Tables selects the delay tables: analytic (default) or char.
	Tables string `json:"tables,omitempty"`
	// Rise / Fall seed worst-case transitions at t=0 on the named inputs.
	// With both empty every input toggles in both directions — the fully
	// vectorless worst case.
	Rise []string `json:"rise,omitempty"`
	Fall []string `json:"fall,omitempty"`
	// Fix pins nodes to constant values ("0" or "1") for sensitization.
	Fix map[string]string `json:"fix,omitempty"`
	// Slope is the input transition time in seconds (default 1e-9).
	Slope float64 `json:"slope,omitempty"`
	// LoopBreak cuts the fanout of the named nodes (feedback directive).
	LoopBreak []string `json:"loopbreak,omitempty"`
	// Top is how many critical paths snapshots retain (default 5, cap 64).
	Top int `json:"top,omitempty"`
}

// fill applies defaults and validates the enumerated fields.
func (c *SessionConfig) fill() error {
	if strings.TrimSpace(c.Sim) == "" {
		return fmt.Errorf("missing sim source")
	}
	if c.Name == "" {
		c.Name = "netlist"
	}
	if c.Tech == "" {
		c.Tech = "nmos-4u"
	}
	if c.Model == "" {
		c.Model = "slope"
	}
	if c.Tables == "" {
		c.Tables = "analytic"
	}
	if c.Slope <= 0 {
		c.Slope = 1e-9
	}
	if c.Top <= 0 {
		c.Top = 5
	}
	if c.Top > 64 {
		c.Top = 64
	}
	return nil
}

// hash is the content hash the session cache is keyed by: every field
// that affects analysis results, canonically serialized. Two loads with
// equal hashes produce byte-identical reports, so the cache may serve one
// session for both.
func (c *SessionConfig) hash() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Maps need a canonical order; everything else is already ordered.
	var fix []string
	for _, k := range c.fixNames() {
		fix = append(fix, k+"="+c.Fix[k])
	}
	enc.Encode([]any{c.Name, c.Sim, c.Tech, c.Model, c.Tables,
		c.Rise, c.Fall, fix, c.Slope, c.LoopBreak, c.Top})
	return hex.EncodeToString(h.Sum(nil))
}

// fixNames returns Fix's node names in sorted order.
func (c *SessionConfig) fixNames() []string {
	names := make([]string, 0, len(c.Fix))
	for name := range c.Fix {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PathHop is one step of a traced critical path, times in seconds.
type PathHop struct {
	Node  string  `json:"node"`
	Tr    string  `json:"tr"`
	T     float64 `json:"t"`
	Slope float64 `json:"slope"`
	Via   string  `json:"via,omitempty"` // stage description; empty for seeded inputs
}

// PathJSON is one traced critical path, input first.
type PathJSON struct {
	Endpoint string    `json:"endpoint"`
	Tr       string    `json:"tr"`
	T        float64   `json:"t"`
	Slope    float64   `json:"slope"`
	Hops     []PathHop `json:"hops"`
}

// Snapshot is the immutable read view installed after every (re)analysis.
type Snapshot struct {
	// Report is the textual report: a header line plus the same critical-
	// path listing the crystal CLI prints (byte-comparable to an offline
	// replay of the same session).
	Report string `json:"report"`
	// Paths is the structured top-N listing (N = SessionConfig.Top).
	Paths []PathJSON `json:"paths"`
	// CriticalNs is the latest arrival in nanoseconds (0 if none).
	CriticalNs float64 `json:"critical_ns"`
	// Epoch is the stage-database generation.
	Epoch uint64 `json:"epoch"`
	// StagesEvaluated counts model evaluations over the session lifetime.
	StagesEvaluated int `json:"stages_evaluated"`
	// Truncated / Unbounded mirror the analyzer's honesty flags.
	Truncated bool     `json:"truncated,omitempty"`
	Unbounded []string `json:"unbounded,omitempty"`
	// Hier is the hierarchical-analysis provenance when the server runs
	// with -hier on: how many annotated instances were detected and how
	// many had their interiors stamped from a class representative versus
	// analyzed flat. Absent when hierarchical analysis is off. Counts can
	// drop to zero after edits — detached instances re-analyze flat.
	Hier *HierJSON `json:"hier,omitempty"`
}

// HierJSON is the Snapshot's hierarchical-analysis provenance block
// (core.HierStats over the wire).
type HierJSON struct {
	Instances int `json:"instances"`
	Stamped   int `json:"stamped"`
	Flat      int `json:"flat"`
}

// session is one resident analysis. Past the immutable header, fields
// are touched only by the session's running job, except shared (guarded
// by Server.mu) and the three published for readers outside the plane:
// shape, barriers and snap. The network itself is the job's alone: from
// the second edit batch on the analyzer edits it in place, so a reader
// outside the plane gets its counts from shape, never from nw.
type session struct {
	id   string
	hash string
	cfg  SessionConfig

	// source records how the network was obtained, a netlist.Source*
	// value: "parse" (the .sim text went through ReadSim) or "snapshot"
	// (the session shares the network arena's copy of a fresh .simx
	// cache entry).
	source string
	// snapWrote reports that this load persisted a new snapshot.
	snapWrote bool
	// shared marks a session currently sharing an arena network under
	// akey; cleared (with an arena release) on copy-on-edit detach and
	// on removal from the cache, whichever comes first.
	shared bool
	akey   arenaKey

	params *tech.Params
	tables *delay.Tables
	model  delay.Model

	nw        *netlist.Network         // current network; the job's alone
	shape     atomic.Pointer[netShape] // nw's counts, published for readers
	a         *core.Analyzer           // nil until the first analyze
	hier      bool                     // server-wide Options.Hier, applied per analyzer
	barriers  atomic.Int64             // run barriers applied; > 0 once edited
	lastEpoch uint64                   // stage-DB generation at the last metrics update

	// batch is the compiled vectorized switch-level engine, built lazily on
	// the first /simulate and rebuilt whenever edits advance the network
	// generation: batchNW and batchGen name the network state it was
	// compiled from (an in-place edit keeps the pointer and moves the
	// generation).
	batch    *switchsim.Batch
	batchNW  *netlist.Network
	batchGen uint64

	snap atomic.Pointer[Snapshot]
}

// netShape is what readers outside the job plane may know of the session's
// network: its counts at the edit generation the job last installed.
type netShape struct{ nodes, trans int }

// setNet installs nw as the session's network and publishes its counts.
// Callers are the session's job (or its constructor).
func (s *session) setNet(nw *netlist.Network) {
	s.nw = nw
	s.shape.Store(&netShape{nodes: len(nw.Nodes), trans: len(nw.Trans)})
}

// batchEngine returns the session's compiled vectorized simulator,
// compiling (or recompiling after an edit generation) on demand; compiled
// reports whether this call built a fresh engine. Callers are the
// session's job — the engine's slab state is single-writer like the
// analyzer.
func (s *session) batchEngine() (b *switchsim.Batch, compiled bool) {
	if nw := s.nw; s.batch == nil || s.batchNW != nw || s.batchGen != nw.Generation() {
		s.batch = switchsim.NewBatch(nw)
		s.batchNW, s.batchGen = nw, nw.Generation()
		compiled = true
	}
	return s.batch, compiled
}

// newSession loads the network through the arena — the shared network
// of this chip if a session holds one, else netlist.LoadCached over the
// snapshot file in snapDir (none when snapDir is empty), the build being
// ReadSim — and prepares (but does not run) the analysis.
//
// Snapshot entries are keyed by the network identity (SHA-256 of the
// .sim text, plus technology and name — the fields that determine the
// network's structure), NOT the full session content hash: two configs
// that differ only in analysis directives (model, seeds, top-N) load
// the same network, so they share one snapshot file and, through the
// arena, one decoded network.
func newSession(id string, cfg SessionConfig, snapDir string, hier bool, arena *netArena) (*session, error) {
	s := &session{id: id, hash: cfg.hash(), cfg: cfg, hier: hier}
	// The retained config drops the .sim source text: it is only needed
	// below (identity hash + cold parse), and for a chip-scale netlist
	// the text is tens of megabytes — cached per session, it would
	// dwarf the memory the shared arena saves. The local cfg still
	// holds it for this load.
	s.cfg.Sim = ""
	p, err := tech.ByName(cfg.Tech)
	if err != nil {
		return nil, err
	}
	s.params = p
	if s.tables, err = charlib.Tables(s.params, cfg.Tables); err != nil {
		return nil, err
	}
	m, err := delay.ByName(cfg.Model, s.tables)
	if err != nil {
		return nil, err
	}
	s.model = m
	key := arenaKey{simHash: sha256.Sum256([]byte(cfg.Sim)), tech: s.params.Name, name: cfg.Name}
	var snapPath string
	if snapDir != "" {
		snapPath = filepath.Join(snapDir, networkFileKey(key)+".simx")
	}
	nw, res, err := arena.load(snapPath, key, s.params, func() (*netlist.Network, error) {
		return netlist.ReadSim(cfg.Name, s.params, strings.NewReader(cfg.Sim))
	})
	if nw == nil {
		return nil, err
	}
	// With a network in hand the only possible error is the cache write,
	// which is best effort: a full snapshot directory or permission
	// problem must not fail the load.
	s.setNet(nw)
	s.source = res.Source
	s.shared, s.akey = res.FromCache(), key
	s.snapWrote = snapPath != "" && !res.FromCache() && err == nil
	return s, nil
}

// networkFileKey names the snapshot file for one network identity.
func networkFileKey(key arenaKey) string {
	h := sha256.New()
	h.Write([]byte("simx-net:" + key.tech + ":" + key.name + ":"))
	h.Write(key.simHash[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// buildAnalyzer constructs a fresh analyzer over the session's current
// network generation with the session's directives, optionally adopting a
// stage database from a previous analyzer over the same generation.
// Callers are the session's job.
func (s *session) buildAnalyzer(db *core.Analyzer) (*core.Analyzer, error) {
	opts := core.Options{Hier: s.hier}
	if db != nil {
		opts.DB = db.StageDB()
	}
	d := core.Directives{
		Fix:       map[string]switchsim.Value{},
		LoopBreak: s.cfg.LoopBreak,
		Rise:      s.cfg.Rise,
		Fall:      s.cfg.Fall,
		Slope:     s.cfg.Slope,
	}
	for _, name := range s.cfg.fixNames() {
		v, err := switchsim.ParseValue(s.cfg.Fix[name])
		if err != nil {
			return nil, fmt.Errorf("fix: %s: %w", name, err)
		}
		d.Fix[name] = v
	}
	return d.New(s.nw, s.model, opts)
}

// buildSnapshot assembles the read view from the current analysis state.
// Callers are the session's job and have completed a run.
func (s *session) buildSnapshot() *Snapshot {
	a := s.a
	snap := &Snapshot{
		Epoch:           a.StageDB().Epoch,
		StagesEvaluated: a.StagesEvaluated(),
		Truncated:       a.Truncated,
		Unbounded:       netlist.Names(a.Unbounded),
	}
	if a.Opts.Hier {
		hs := a.HierStats()
		snap.Hier = &HierJSON{Instances: hs.Instances, Stamped: hs.Stamped, Flat: hs.Flat}
	}
	var b strings.Builder
	st := a.Net.Stats()
	fmt.Fprintf(&b, "crystald: %s — %d transistors, %d nodes (%s tables)\n",
		a.Net.Name, st.Trans, st.Nodes, s.tables.Source)
	a.WriteReport(&b, s.cfg.Top)
	snap.Report = b.String()
	for _, p := range a.CriticalPaths(s.cfg.Top) {
		end := p.End()
		pj := PathJSON{
			Endpoint: end.Node.Name,
			Tr:       end.Tr.String(),
			T:        end.Event.T,
			Slope:    end.Event.Slope,
		}
		for _, h := range p.Hops {
			hop := PathHop{Node: h.Node.Name, Tr: h.Tr.String(), T: h.Event.T, Slope: h.Event.Slope}
			if h.Event.Via != nil {
				hop.Via = h.Event.Via.Format(a.Net)
			}
			pj.Hops = append(pj.Hops, hop)
		}
		snap.Paths = append(snap.Paths, pj)
	}
	if len(snap.Paths) > 0 {
		snap.CriticalNs = snap.Paths[0].T * 1e9
	}
	s.snap.Store(snap)
	return snap
}
