// Service metrics: cheap atomic counters for the cache and the analysis
// engine, plus bounded latency recorders with on-demand percentiles. The
// /metrics endpoint serves a JSON snapshot, the daemon's one metrics
// surface.
//
// Concurrency contract, audited for torn reads under concurrent scrape +
// update (TestMetricsScrapeUnderLoad runs the audit under -race): every
// counter in the metrics struct is an atomic.Int64; the latency rings and
// the drain counters are mutex-guarded because one observation writes
// several fields; and gauges owned by other subsystems
// (session-cache size, arena refcounts, job-queue depth) are read under
// their owners' locks at snapshot time and passed in by value. A snapshot
// is therefore internally torn only *across* fields (counters advance
// between two Loads), never within one — each field is a consistent value
// some moment saw.
package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// latencyRing bounds each recorder: percentiles are computed over the most
// recent latencyRing observations, so a long-lived daemon reports current
// behaviour, not its lifetime average.
const latencyRing = 512

// latencyRecorder keeps the last latencyRing durations of one request
// class.
type latencyRecorder struct {
	mu    sync.Mutex
	ring  [latencyRing]int64 // nanoseconds
	n     int                // filled slots, capped at latencyRing
	next  int                // ring cursor
	total int64              // lifetime observation count
}

func (l *latencyRecorder) observe(d time.Duration) {
	l.mu.Lock()
	l.ring[l.next] = d.Nanoseconds()
	l.next = (l.next + 1) % latencyRing
	if l.n < latencyRing {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// LatencyStats is one recorder's snapshot: lifetime count and percentiles
// over the recent window.
type LatencyStats struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
}

func (l *latencyRecorder) stats() LatencyStats {
	l.mu.Lock()
	buf := make([]int64, l.n)
	copy(buf, l.ring[:l.n])
	st := LatencyStats{Count: l.total}
	l.mu.Unlock()
	if len(buf) == 0 {
		return st
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	st.P50Ns = buf[len(buf)/2]
	st.P99Ns = buf[(len(buf)*99)/100]
	return st
}

// metrics is the server's counter set. The per-request counters are
// atomics, so handlers never serialize on a stats lock.
type metrics struct {
	sessionsCreated atomic.Int64
	sessionsDeduped atomic.Int64 // content-hash cache hits on POST /v1/sessions
	sessionsEvicted atomic.Int64 // LRU evictions

	snapshotHits   atomic.Int64 // sessions loaded from the .simx cache (parse skipped)
	snapshotMisses atomic.Int64 // sessions parsed because no fresh snapshot existed
	snapshotWrites atomic.Int64 // snapshots persisted after a parse

	analyzesFull   atomic.Int64 // full drains (initial and forced runs)
	analyzesCached atomic.Int64 // served straight from the session snapshot

	hierAnalyzes  atomic.Int64 // full drains run with hierarchical analysis on
	hierInstances atomic.Int64 // cumulative annotated instances those drains detected
	hierStamped   atomic.Int64 // cumulative instances whose interiors were stamped
	hierFlat      atomic.Int64 // cumulative instances analyzed flat (with per-instance reasons)

	editBatches      atomic.Int64 // run barriers applied
	editsIncremental atomic.Int64 // barriers served by the incremental engine
	editsFull        atomic.Int64 // barriers that fell back to a full drain
	drainEpochs      atomic.Int64 // cumulative stage-DB generations advanced

	jobsSubmitted atomic.Int64 // jobs admitted to the queue, sync and async
	jobsDone      atomic.Int64 // jobs completed successfully
	jobsFailed    atomic.Int64 // jobs that completed with an error status
	jobsRejected  atomic.Int64 // submissions rejected with 429 (queue full)
	jobsAbandoned atomic.Int64 // queued sync jobs dropped unrun: the client left

	simRequests     atomic.Int64 // POST .../simulate calls served
	simVectors      atomic.Int64 // input vectors settled by the batch engine
	simSweeps       atomic.Int64 // cumulative settle sweeps across all batches
	simOscillations atomic.Int64 // vectors that tripped the oscillation cutoff
	simCompiles     atomic.Int64 // batch-engine (re)compiles (first use or post-edit)

	analyzeLatency  latencyRecorder // one full analyze
	editLatency     latencyRecorder // one edit barrier (Reanalyze + report)
	simulateLatency latencyRecorder // one simulate batch (compile + settle)
	jobQueueLatency latencyRecorder // job queue wait (submit → dispatch)

	// Drain counters, aggregated across every drain any session ran (see
	// core.DrainStats).
	drainMu sync.Mutex
	drain   core.DrainStats
}

// observeDrain folds what one analyzer's drains did between two readings of
// its counters into the aggregate.
func (m *metrics) observeDrain(before, after core.DrainStats) {
	m.drainMu.Lock()
	m.drain.Accumulate(before, after)
	m.drainMu.Unlock()
}

// MetricsSnapshot is the externally visible metrics document.
type MetricsSnapshot struct {
	Sessions struct {
		Live    int   `json:"live"`
		Created int64 `json:"created"`
		Deduped int64 `json:"deduped"`
		Evicted int64 `json:"evicted"`
	} `json:"sessions"`
	Snapshots struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Writes int64 `json:"writes"`
	} `json:"snapshots"`
	Analyze struct {
		Full   int64 `json:"full"`
		Cached int64 `json:"cached"`
	} `json:"analyze"`
	// Hier aggregates hierarchical-analysis provenance across every full
	// analyze the daemon ran with -hier on (all zero with -hier off):
	// instances detected, instances stamped from a class representative,
	// instances analyzed flat.
	Hier struct {
		Analyzes  int64 `json:"analyzes"`
		Instances int64 `json:"instances"`
		Stamped   int64 `json:"stamped"`
		Flat      int64 `json:"flat"`
	} `json:"hier"`
	Edits struct {
		Batches     int64 `json:"batches"`
		Incremental int64 `json:"incremental"`
		Full        int64 `json:"full"`
		DrainEpochs int64 `json:"drain_epochs"`
	} `json:"edits"`
	// Jobs is the job plane every analyze, edit script and simulate runs
	// on: instantaneous queue state (gauges) plus lifetime outcome
	// counters. Queued is the admission-control signal — at Capacity,
	// new submissions get 429.
	Jobs struct {
		Queued    int   `json:"queued"`   // gauge: admitted, not yet dispatched
		Running   int   `json:"running"`  // gauge: executing on the worker pool
		Capacity  int   `json:"capacity"` // queue bound (Options.JobQueueDepth)
		Submitted int64 `json:"submitted"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
		Abandoned int64 `json:"abandoned"`
	} `json:"jobs"`
	Sim struct {
		Requests     int64 `json:"requests"`
		Vectors      int64 `json:"vectors"`
		Sweeps       int64 `json:"sweeps"`
		Oscillations int64 `json:"oscillations"`
		Compiles     int64 `json:"compiles"`
	} `json:"sim"`
	// NetArena is the shared-network gauge set: current references
	// plus the lifetime copy-on-edit detach count. All zero when the
	// arena is disabled.
	NetArena  ArenaStats      `json:"netarena"`
	Drain     core.DrainStats `json:"drain"`
	LatencyNs struct {
		Analyze     LatencyStats `json:"analyze"`
		EditBarrier LatencyStats `json:"edit_barrier"`
		Simulate    LatencyStats `json:"simulate"`
		JobQueue    LatencyStats `json:"job_queue"`
	} `json:"latency_ns"`
}

// jobGauges is the job plane's instantaneous state, read under the
// plane's own lock at snapshot time (the plane owns queue/busy state;
// the cumulative counters live in metrics as atomics).
type jobGauges struct {
	Queued   int
	Running  int
	Capacity int
}

// snapshot assembles the document; live is the current cache size (owned
// by the server, which holds its own lock) and arena the shared-network
// gauges (zero when the arena is disabled).
func (m *metrics) snapshot(live int, arena ArenaStats, jobs jobGauges) MetricsSnapshot {
	var s MetricsSnapshot
	s.Sessions.Live = live
	s.NetArena = arena
	s.Jobs.Queued = jobs.Queued
	s.Jobs.Running = jobs.Running
	s.Jobs.Capacity = jobs.Capacity
	s.Jobs.Submitted = m.jobsSubmitted.Load()
	s.Jobs.Done = m.jobsDone.Load()
	s.Jobs.Failed = m.jobsFailed.Load()
	s.Jobs.Rejected = m.jobsRejected.Load()
	s.Jobs.Abandoned = m.jobsAbandoned.Load()
	s.Sessions.Created = m.sessionsCreated.Load()
	s.Sessions.Deduped = m.sessionsDeduped.Load()
	s.Sessions.Evicted = m.sessionsEvicted.Load()
	s.Snapshots.Hits = m.snapshotHits.Load()
	s.Snapshots.Misses = m.snapshotMisses.Load()
	s.Snapshots.Writes = m.snapshotWrites.Load()
	s.Analyze.Full = m.analyzesFull.Load()
	s.Analyze.Cached = m.analyzesCached.Load()
	s.Hier.Analyzes = m.hierAnalyzes.Load()
	s.Hier.Instances = m.hierInstances.Load()
	s.Hier.Stamped = m.hierStamped.Load()
	s.Hier.Flat = m.hierFlat.Load()
	s.Edits.Batches = m.editBatches.Load()
	s.Edits.Incremental = m.editsIncremental.Load()
	s.Edits.Full = m.editsFull.Load()
	s.Edits.DrainEpochs = m.drainEpochs.Load()
	s.Sim.Requests = m.simRequests.Load()
	s.Sim.Vectors = m.simVectors.Load()
	s.Sim.Sweeps = m.simSweeps.Load()
	s.Sim.Oscillations = m.simOscillations.Load()
	s.Sim.Compiles = m.simCompiles.Load()
	m.drainMu.Lock()
	s.Drain = m.drain
	m.drainMu.Unlock()
	s.LatencyNs.Analyze = m.analyzeLatency.stats()
	s.LatencyNs.EditBarrier = m.editLatency.stats()
	s.LatencyNs.Simulate = m.simulateLatency.stats()
	s.LatencyNs.JobQueue = m.jobQueueLatency.stats()
	return s
}
