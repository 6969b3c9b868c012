// Package server is the crystald analysis service: a long-lived HTTP/JSON
// daemon holding parsed netlists, compiled network views and stage-DB
// generations in a bounded LRU session cache, so the designer loop —
// load, analyze, edit, re-verify — pays the parse/compile/enumerate cost
// once and every subsequent query runs against resident state. Edits
// speak the same script grammar as `crystal -edits` and are served by the
// incremental engine, with honest reporting when it falls back to a full
// drain.
//
// Endpoints:
//
//	POST   /v1/sessions               load a .sim netlist (content-hash dedup)
//	GET    /v1/sessions               list resident sessions
//	GET    /v1/sessions/{id}          one session's state
//	DELETE /v1/sessions/{id}          evict a session
//	POST   /v1/sessions/{id}/analyze  full analysis ({"force": true})
//	POST   /v1/sessions/{id}/edits    edit script ({"script": "..."}), incremental
//	POST   /v1/sessions/{id}/simulate settle input vectors ({"vectors": ["01X", ...]})
//	GET    /v1/sessions/{id}/critical top-N critical paths (?n=, from snapshot)
//	GET    /healthz                   liveness
//	GET    /metrics                   counters + latency percentiles (JSON)
package server

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/netlist"
)

// Options tunes the server.
type Options struct {
	// MaxSessions bounds the LRU session cache (default 16). A session is
	// the dominant memory unit — network + stage DB + arrivals — so this
	// is the daemon's memory knob; see docs/SERVER.md for sizing.
	MaxSessions int
	// DefaultWorkers is read by nothing: an analysis is one serial run.
	//
	// Deprecated: ignored; kept because bench/service.go sets it.
	DefaultWorkers int
	// Hier enables hierarchical macromodel analysis in every session
	// analyzer (core.Options.Hier): replicated instances analyze one
	// representative and stamp the timing onto the other copies. Results
	// are bit-identical either way; analyze responses then carry a "hier"
	// provenance block and /metrics a hier.* section. cmd/crystald
	// exposes this as -hier.
	Hier bool
	// SnapshotDir, when non-empty, enables the .simx warm-start cache:
	// every parsed session is persisted there keyed by its network
	// identity (source hash + technology + name), and a later POST of
	// the same network — including after a daemon restart, or under
	// different analysis directives — loads the binary snapshot instead
	// of re-parsing. The directory is created if missing.
	SnapshotDir string
	// JobWorkers is the job plane's worker-pool size (default 2): how
	// many analyzes, edit scripts and simulates, sync or async, execute
	// concurrently. Jobs of one session always serialize regardless.
	JobWorkers int
	// JobQueueDepth bounds the admitted-but-undispatched job queue
	// (default 32). A full queue answers 429 + Retry-After to sync and
	// async requests alike — the admission-control backpressure signal;
	// see docs/SERVER.md.
	JobQueueDepth int
}

func (o Options) fill() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.JobQueueDepth <= 0 {
		o.JobQueueDepth = 32
	}
	return o
}

// Server is the HTTP handler plus the session cache. Create with New;
// safe for concurrent use.
type Server struct {
	opts Options
	mux  *http.ServeMux
	m    metrics

	// maxBody is MaxBodyBytes; a field so tests can exercise the limit
	// without quarter-gigabyte bodies.
	maxBody int64

	// arena shares read-only mapped network views across sessions of
	// the same chip. Views come from snapshot files, so without a
	// SnapshotDir it stays empty.
	arena *netArena

	// jobs is the job plane: the bounded worker-pool queue every
	// analyze, edit script and simulate runs on (see jobs.go).
	jobs *jobPlane

	mu     sync.Mutex
	byID   map[string]*list.Element
	byHash map[string]*list.Element // only pristine (un-edited) sessions
	lru    *list.List               // front = most recently used; values are *session
	seq    int64                    // id disambiguator for diverged reloads
}

// New creates a server.
func New(opts Options) *Server {
	opts = opts.fill()
	if opts.SnapshotDir != "" {
		if err := os.MkdirAll(opts.SnapshotDir, 0o755); err != nil {
			// No cache directory, no cache — the daemon still serves.
			opts.SnapshotDir = ""
		}
	}
	sv := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		byID:    make(map[string]*list.Element),
		byHash:  make(map[string]*list.Element),
		lru:     list.New(),
		maxBody: MaxBodyBytes,
		arena:   newNetArena(),
	}
	sv.jobs = newJobPlane(opts.JobWorkers, opts.JobQueueDepth, &sv.m)
	sv.mux.HandleFunc("POST /v1/sessions", sv.handleCreate)
	sv.mux.HandleFunc("GET /v1/sessions", sv.handleList)
	sv.mux.HandleFunc("GET /v1/sessions/{id}", sv.handleInfo)
	sv.mux.HandleFunc("DELETE /v1/sessions/{id}", sv.handleDelete)
	sv.mux.HandleFunc("POST /v1/sessions/{id}/analyze", sv.handleAnalyze)
	sv.mux.HandleFunc("POST /v1/sessions/{id}/edits", sv.handleEdits)
	sv.mux.HandleFunc("POST /v1/sessions/{id}/simulate", sv.handleSimulate)
	sv.mux.HandleFunc("GET /v1/sessions/{id}/critical", sv.handleCritical)
	sv.mux.HandleFunc("GET /v1/jobs/{id}", sv.handleJob)
	sv.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	sv.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sv.MetricsSnapshot())
	})
	return sv
}

// MaxBodyBytes bounds every request body. The largest body the daemon
// is meant to take is a create carrying the .sim text of the largest
// supported chip — chip:64,40 is 189 MB of text, a few percent more
// once JSON-escaped — so the limit is that with headroom; anything
// longer is answered 413 instead of being buffered.
const MaxBodyBytes = 256 << 20

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, sv.maxBody)
	sv.mux.ServeHTTP(w, r)
}

// MetricsSnapshot returns the current metrics document (also served at
// /metrics).
func (sv *Server) MetricsSnapshot() MetricsSnapshot {
	sv.mu.Lock()
	live := sv.lru.Len()
	sv.mu.Unlock()
	queued, running := sv.jobs.gauges()
	return sv.m.snapshot(live, sv.arena.stats(), jobGauges{
		Queued: queued, Running: running, Capacity: sv.opts.JobQueueDepth,
	})
}

// httpError is the uniform error body.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// fail is a job's error answer: its status and the writeErr body.
func fail(status int, format string, args ...any) (int, any) {
	return status, httpError{Error: fmt.Sprintf(format, args...)}
}

// lookup fetches a session by id and bumps its LRU recency.
func (sv *Server) lookup(id string) *session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	el, ok := sv.byID[id]
	if !ok {
		return nil
	}
	sv.lru.MoveToFront(el)
	return el.Value.(*session)
}

// insert adds a session to the cache, evicting from the LRU tail past the
// bound. The caller has verified no pristine session shares the hash.
func (sv *Server) insert(s *session) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	el := sv.lru.PushFront(s)
	sv.byID[s.id] = el
	if _, taken := sv.byHash[s.hash]; !taken {
		sv.byHash[s.hash] = el
	}
	for sv.lru.Len() > sv.opts.MaxSessions {
		tail := sv.lru.Back()
		sv.removeLocked(tail)
		sv.m.sessionsEvicted.Add(1)
	}
}

// removeLocked unlinks one cache element. Callers hold sv.mu. Jobs
// holding the session pointer finish normally — eviction only stops new
// lookups; the session's memory is reclaimed when the last job returns.
func (sv *Server) removeLocked(el *list.Element) {
	s := el.Value.(*session)
	sv.lru.Remove(el)
	delete(sv.byID, s.id)
	if cur, ok := sv.byHash[s.hash]; ok && cur == el {
		delete(sv.byHash, s.hash)
	}
	if s.shared {
		// Drop the arena reference; the mapping itself stays resident
		// (in-flight handlers may still hold the session, and name
		// strings alias the mapped pages).
		s.shared = false
		sv.arena.release(s.akey)
	}
}

// drop retires a session whose job panicked: its analyzer, batch engine
// and snapshot may be half-updated, so it leaves the cache, and a job
// still queued on it starts over from the last published network
// generation. Callers are the session's job.
func (sv *Server) drop(s *session) {
	s.a, s.batch = nil, nil
	s.snap.Store(nil)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if el, ok := sv.byID[s.id]; ok && el.Value.(*session) == s {
		sv.removeLocked(el)
	}
}

// markEdited records that a session diverged from its loaded source: it
// no longer answers content-hash dedup (a re-POST of the same source must
// get a pristine session, not someone's edit state), and it detaches from
// any arena view it aliased — the analyzer's first Reanalyze cloned the
// view before editing, so the session now holds a private heap copy (the
// mapping stays resident; the clone's name strings still alias its pages).
// The reference is dropped here or by removeLocked, whichever runs first;
// sv.mu orders the two.
func (sv *Server) markEdited(s *session) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if el, ok := sv.byHash[s.hash]; ok && el.Value.(*session) == s {
		delete(sv.byHash, s.hash)
	}
	if s.shared {
		s.shared = false
		sv.arena.detach(s.akey)
	}
}

// createResponse is the POST /v1/sessions reply.
type createResponse struct {
	Session string `json:"session"`
	Cached  bool   `json:"cached"`
	// Source reports how the network was obtained: "parse", or from the
	// .simx warm-start cache without parsing — "mmap" (aliasing the
	// shared arena's read-only mapped view) where netlist.MmapSupported,
	// "snapshot" (a private heap copy) elsewhere. Empty when the
	// snapshot cache is disabled.
	Source      string `json:"source,omitempty"`
	Name        string `json:"name"`
	Tech        string `json:"tech"`
	Model       string `json:"model"`
	Tables      string `json:"tables"`
	Nodes       int    `json:"nodes"`
	Transistors int    `json:"transistors"`
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if !readJSON(w, r, &cfg, false) {
		return
	}
	if err := cfg.fill(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash := cfg.hash()

	// Content-hash dedup: a pristine session over identical content
	// answers for every identical load.
	sv.mu.Lock()
	if el, ok := sv.byHash[hash]; ok {
		s := el.Value.(*session)
		sv.lru.MoveToFront(el)
		sv.mu.Unlock()
		sv.m.sessionsDeduped.Add(1)
		writeJSON(w, http.StatusOK, sv.describe(s, true))
		return
	}
	sv.seq++
	seq := sv.seq
	sv.mu.Unlock()

	id := hash[:12]
	if sv.lookup(id) != nil { // hash prefix taken by a diverged session
		id = fmt.Sprintf("%s.%d", hash[:12], seq)
	}
	s, err := newSession(id, cfg, sv.opts.SnapshotDir, sv.opts.Hier, sv.arena)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sv.opts.SnapshotDir != "" {
		if s.source != netlist.SourceParse { // the cache served
			sv.m.snapshotHits.Add(1)
		} else {
			sv.m.snapshotMisses.Add(1)
		}
		if s.snapWrote {
			sv.m.snapshotWrites.Add(1)
		}
	}
	sv.insert(s)
	sv.m.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, sv.describe(s, false))
}

func (sv *Server) describe(s *session, cached bool) createResponse {
	shape := s.shape.Load()
	resp := createResponse{
		Session: s.id, Cached: cached,
		Name: s.cfg.Name, Tech: s.cfg.Tech, Model: s.cfg.Model, Tables: s.cfg.Tables,
		Nodes: shape.nodes, Transistors: shape.trans,
	}
	if sv.opts.SnapshotDir != "" {
		resp.Source = s.source
	}
	return resp
}

// sessionInfo is one row of GET /v1/sessions (and the GET /{id} body).
type sessionInfo struct {
	Session     string  `json:"session"`
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Transistors int     `json:"transistors"`
	Analyzed    bool    `json:"analyzed"`
	Edited      bool    `json:"edited"`
	Barriers    int     `json:"barriers"`
	Epoch       uint64  `json:"epoch"`
	CriticalNs  float64 `json:"critical_ns"`
}

func (sv *Server) info(s *session) sessionInfo {
	shape := s.shape.Load()
	barriers := int(s.barriers.Load())
	inf := sessionInfo{
		Session: s.id, Name: s.cfg.Name,
		Nodes: shape.nodes, Transistors: shape.trans,
		Edited: barriers > 0, Barriers: barriers,
	}
	if snap := s.snap.Load(); snap != nil {
		inf.Analyzed = true
		inf.Epoch = snap.Epoch
		inf.CriticalNs = snap.CriticalNs
	}
	return inf
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	sessions := make([]*session, 0, sv.lru.Len())
	for el := sv.lru.Front(); el != nil; el = el.Next() {
		sessions = append(sessions, el.Value.(*session))
	}
	sv.mu.Unlock()
	out := make([]sessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, sv.info(s))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (sv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sv.info(s))
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sv.mu.Lock()
	el, ok := sv.byID[id]
	if ok {
		sv.removeLocked(el)
	}
	sv.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// analyzeRequest is the POST .../analyze body (all fields optional).
type analyzeRequest struct {
	// Force reruns the full drain even when the snapshot is current.
	Force bool `json:"force,omitempty"`
	// Async detaches the run from the connection: the handler answers
	// 202 with a job id immediately instead of waiting for the job; poll
	// GET /v1/jobs/{id} for the result (identical to the synchronous
	// body, modulo duration_ns).
	Async bool `json:"async,omitempty"`
}

// analyzeResponse is the analyze reply: the snapshot plus run metadata.
type analyzeResponse struct {
	*Snapshot
	Cached     bool  `json:"cached"`
	DurationNs int64 `json:"duration_ns"`
}

func (sv *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	var req analyzeRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	sv.runJob(w, r, s, "analyze", req.Async, func() (int, any) { return sv.analyzeSession(s, req) })
}

// analyzeSession runs one analyze request to completion on the job plane
// and returns the HTTP status plus response body.
func (sv *Server) analyzeSession(s *session, req analyzeRequest) (int, any) {
	// Snapshot still current: serve it.
	if snap := s.snap.Load(); snap != nil && !req.Force {
		sv.m.analyzesCached.Add(1)
		return http.StatusOK, analyzeResponse{Snapshot: snap, Cached: true}
	}
	a, err := s.buildAnalyzer(s.a)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	start := time.Now()
	if err := a.Run(); err != nil {
		return fail(http.StatusUnprocessableEntity, "%v", err)
	}
	dur := time.Since(start)
	s.a = a
	snap := s.buildSnapshot()
	if a.Opts.Hier {
		hs := a.HierStats()
		sv.m.hierAnalyzes.Add(1)
		sv.m.hierInstances.Add(int64(hs.Instances))
		sv.m.hierStamped.Add(int64(hs.Stamped))
		sv.m.hierFlat.Add(int64(hs.Flat))
	}
	sv.m.analyzesFull.Add(1)
	sv.m.analyzeLatency.observe(dur)
	sv.m.observeDrain(core.DrainStats{}, a.DrainStats()) // fresh analyzer: stats are this run's
	return http.StatusOK, analyzeResponse{
		Snapshot: snap, DurationNs: dur.Nanoseconds(),
	}
}

// editsRequest is the POST .../edits body: an edit script in the same
// grammar as `crystal -edits` (see internal/incremental).
type editsRequest struct {
	Script string `json:"script"`
	// Async answers 202 + job id immediately; poll GET /v1/jobs/{id}
	// for the barrier results. Long edit scripts (every barrier is a
	// re-analysis) are the other connection-holding request class
	// besides analyze.
	Async bool `json:"async,omitempty"`
}

// barrierResult reports one `run` barrier: the Reanalyze outcome — honest
// about full fallbacks and why — plus the refreshed report.
type barrierResult struct {
	Line            int     `json:"line"`
	Incremental     bool    `json:"incremental"`
	Reason          string  `json:"reason,omitempty"` // fallback reason when full
	DirtyNodes      int     `json:"dirty_nodes"`
	TotalNodes      int     `json:"total_nodes"`
	DirtyFrac       float64 `json:"dirty_frac"`
	Epoch           uint64  `json:"epoch"`
	StagesEvaluated int     `json:"stages_evaluated"`
	DurationNs      int64   `json:"duration_ns"`
	Status          string  `json:"status"` // the CLI-format status line
	Report          string  `json:"report"`
}

type editsResponse struct {
	Barriers []barrierResult `json:"barriers"`
	Snapshot *Snapshot       `json:"snapshot"`
}

func (sv *Server) handleEdits(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	var req editsRequest
	if !readJSON(w, r, &req, false) {
		return
	}
	if strings.TrimSpace(req.Script) == "" {
		writeErr(w, http.StatusBadRequest, "missing script")
		return
	}
	sv.runJob(w, r, s, "edits", req.Async, func() (int, any) { return sv.editsSession(s, req) })
}

// editsSession applies one edit script to completion on the job plane
// and returns the HTTP status plus response body.
func (sv *Server) editsSession(s *session, req editsRequest) (int, any) {
	if s.a == nil {
		return fail(http.StatusConflict, "session %s not analyzed yet (POST .../analyze first)", s.id)
	}
	var resp editsResponse
	err := incremental.ReplayScript(strings.NewReader(req.Script), "script",
		func(line int, batch []incremental.Edit) error {
			start := time.Now()
			before := s.a.DrainStats()
			stats, err := s.a.Reanalyze(batch)
			if err != nil {
				return err
			}
			dur := time.Since(start)
			sv.m.observeDrain(before, s.a.DrainStats())
			s.barriers.Add(1)
			sv.m.editBatches.Add(1)
			sv.m.editLatency.observe(dur)
			if stats.Full {
				sv.m.editsFull.Add(1)
			} else {
				sv.m.editsIncremental.Add(1)
			}
			if stats.Epoch > s.lastEpoch {
				sv.m.drainEpochs.Add(int64(stats.Epoch - s.lastEpoch))
				s.lastEpoch = stats.Epoch
			}
			snap := s.buildSnapshot()
			resp.Barriers = append(resp.Barriers, barrierResult{
				Line:            line,
				Incremental:     !stats.Full,
				Reason:          stats.Reason,
				DirtyNodes:      stats.DirtyNodes,
				TotalNodes:      stats.TotalNodes,
				DirtyFrac:       stats.DirtyFrac,
				Epoch:           stats.Epoch,
				StagesEvaluated: stats.StagesEvaluated,
				DurationNs:      dur.Nanoseconds(),
				Status:          core.FormatReanalyzeStatus("crystald", stats),
				Report:          snap.Report,
			})
			return nil
		})
	if len(resp.Barriers) > 0 {
		// Reanalyze advanced the network generation, and the session
		// diverged from its loaded source even if a later batch failed.
		s.setNet(s.a.Net)
		sv.markEdited(s)
	}
	if err != nil {
		// A failed batch is atomic (Reanalyze validates it before the
		// first edit), but earlier barriers in the same script have been
		// applied; report them alongside the error so the client knows
		// where it stopped.
		return http.StatusUnprocessableEntity, map[string]any{
			"error":    err.Error(),
			"barriers": resp.Barriers,
		}
	}
	resp.Snapshot = s.snap.Load()
	return http.StatusOK, resp
}

func (sv *Server) handleCritical(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	snap := s.snap.Load()
	if snap == nil {
		writeErr(w, http.StatusConflict, "session %s not analyzed yet (POST .../analyze first)", s.id)
		return
	}
	paths := snap.Paths
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		if n < len(paths) {
			paths = paths[:n]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":     s.id,
		"epoch":       snap.Epoch,
		"critical_ns": snap.CriticalNs,
		"paths":       paths,
	})
}

// readJSON decodes the request body into v and reports whether it
// could; when not, it has answered — 413 for a body past the limit, 400
// for anything else. An empty body is fine where optional.
func readJSON(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || (optional && err == io.EOF) {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}
