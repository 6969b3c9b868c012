// The async job plane: long-running requests (a chip-scale analyze holds
// a connection for seconds; a big edit script for longer) can opt out of
// request/response coupling with {"async": true} — the handler enqueues
// the work on a bounded worker pool and answers 202 with a job id, and
// the client polls GET /v1/jobs/{id} until the job is done or failed.
// The completed job carries the exact body the synchronous handler would
// have written (same structs, same encoder), so an async result is
// byte-identical to the synchronous response modulo the wall-clock
// duration fields — pinned by TestAsyncAnalyzeIdentity and
// TestAsyncEditsIdentity.
//
// Admission and ordering:
//
//   - The queue is bounded (Options.JobQueueDepth). A full queue rejects
//     with 429 + Retry-After instead of buffering unboundedly — the
//     backpressure signal a gateway needs for load shedding.
//   - Jobs of one session execute in submission order, one at a time
//     (per-session FIFO via the busy set below). Jobs of different
//     sessions run concurrently up to Options.JobWorkers. The session
//     mutex would serialize execution anyway; the plane additionally
//     guarantees *order*, so a poll sequence never observes barrier N+1
//     applied before barrier N.
//   - Graceful drain (Server.BeginDrain): admitted jobs — queued and
//     running — finish, new submissions are rejected with 503, and
//     Server.WaitJobs blocks until the plane is idle. cmd/crystald runs
//     this between SIGTERM and listener shutdown.
//
// Fault injection: the plane's delay and failEvery fields stretch every
// execution and fail every Nth one with a synthetic 500. Only this
// package's tests set them; they are not options.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Job states, in lifecycle order.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// jobRetention bounds the completed-job history: polls for a job finished
// more than jobRetention completions ago return 404. Clients poll
// promptly, so the bound is generous; it exists so a long-lived daemon
// cannot leak one result per job ever submitted.
const jobRetention = 4096

// job is one admitted unit of async work. Mutable fields are guarded by
// the owning plane's mutex; run is called exactly once, outside the lock.
type job struct {
	id      string
	session string
	kind    string // "analyze" or "edits"
	run     func() (int, any)

	state    string
	status   int             // HTTP status of the completed execution
	result   json.RawMessage // body the sync handler would have written (done/failed)
	created  time.Time
	started  time.Time
	finished time.Time
}

// jobPlane is the bounded worker-pool queue. All methods are safe for
// concurrent use.
type jobPlane struct {
	workers   int
	depth     int
	delay     time.Duration // fault injection, tests only: stretch every execution
	failEvery int64         // fault injection, tests only: fail every Nth execution

	m *metrics

	mu       sync.Mutex
	cond     *sync.Cond // signalled when the plane may have gone idle
	byID     map[string]*job
	queue    []*job          // admitted, undispatched, submission order
	busy     map[string]bool // session ids with a job executing
	running  int
	seq      int64
	execs    int64 // lifetime executions started (fault-injection counter)
	draining bool
	history  []string // completed job ids, oldest first, for retention
}

func newJobPlane(workers, depth int, m *metrics) *jobPlane {
	p := &jobPlane{
		workers: workers,
		depth:   depth,
		m:       m,
		byID:    make(map[string]*job),
		busy:    make(map[string]bool),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Submission errors, distinguished so the handler can map them to 429
// (full) vs 503 (draining).
var (
	errJobQueueFull = fmt.Errorf("job queue full")
	errJobsDraining = fmt.Errorf("draining: not accepting new jobs")
)

// submit admits one job, or reports why it cannot. The returned job is
// already dispatched if a worker slot and its session are free.
func (p *jobPlane) submit(session, kind string, run func() (int, any)) (*job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		p.m.jobsRejected.Add(1)
		return nil, errJobsDraining
	}
	if len(p.queue) >= p.depth {
		p.m.jobsRejected.Add(1)
		return nil, errJobQueueFull
	}
	p.seq++
	j := &job{
		id:      fmt.Sprintf("j%d", p.seq),
		session: session,
		kind:    kind,
		run:     run,
		state:   jobQueued,
		created: time.Now(),
	}
	p.byID[j.id] = j
	p.queue = append(p.queue, j)
	p.m.jobsSubmitted.Add(1)
	p.kickLocked()
	return j, nil
}

// kickLocked dispatches queued jobs onto free worker slots, skipping
// sessions that already have a job executing (per-session FIFO: a skipped
// session's next job is dispatched by the completion of its predecessor).
// Callers hold p.mu.
func (p *jobPlane) kickLocked() {
	for p.running < p.workers {
		picked := -1
		for i, j := range p.queue {
			if !p.busy[j.session] {
				picked = i
				break
			}
		}
		if picked < 0 {
			return
		}
		j := p.queue[picked]
		p.queue = append(p.queue[:picked], p.queue[picked+1:]...)
		p.busy[j.session] = true
		p.running++
		j.state = jobRunning
		j.started = time.Now()
		p.m.jobQueueLatency.observe(j.started.Sub(j.created))
		go p.exec(j)
	}
}

// exec runs one dispatched job to completion and releases its session
// and worker slot.
func (p *jobPlane) exec(j *job) {
	p.mu.Lock()
	p.execs++
	injectFail := p.failEvery > 0 && p.execs%p.failEvery == 0
	p.mu.Unlock()

	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	var (
		status int
		body   json.RawMessage
		err    error
	)
	if injectFail {
		status = http.StatusInternalServerError
		body, err = marshalBody(httpError{Error: "chaos: injected job failure"})
	} else {
		var v any
		status, v = j.run()
		body, err = marshalBody(v)
	}
	if err != nil { // cannot happen for the response structs; stay honest anyway
		status = http.StatusInternalServerError
		body = json.RawMessage(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}

	p.mu.Lock()
	// The closure holds the session — network, analyzer, stage DB — and
	// the job record outlives it by up to jobRetention completions.
	j.run = nil
	j.status = status
	j.result = body
	j.finished = time.Now()
	if status >= 400 {
		j.state = jobFailed
		p.m.jobsFailed.Add(1)
	} else {
		j.state = jobDone
		p.m.jobsDone.Add(1)
	}
	p.history = append(p.history, j.id)
	for len(p.history) > jobRetention {
		delete(p.byID, p.history[0])
		p.history = p.history[1:]
	}
	delete(p.busy, j.session)
	p.running--
	p.kickLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// beginDrain stops admission; already-admitted jobs keep running.
func (p *jobPlane) beginDrain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// wait blocks until no job is queued or running, or the deadline passes;
// it reports whether the plane went idle.
func (p *jobPlane) wait(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// Wake the waiter at the deadline even if no job completes.
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for (len(p.queue) > 0 || p.running > 0) && time.Now().Before(deadline) {
		p.cond.Wait()
	}
	return len(p.queue) == 0 && p.running == 0
}

// gauges reports the instantaneous queue state for /metrics.
func (p *jobPlane) gauges() (queued, running int, draining bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.running, p.draining
}

// get returns a point-in-time copy of one job (nil if unknown or aged
// out of retention).
func (p *jobPlane) get(id string) *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.byID[id]
	if !ok {
		return nil
	}
	cp := *j
	return &cp
}

// marshalBody encodes a response value exactly as writeJSON would (same
// encoder, HTML escaping off), minus the trailing newline.
func marshalBody(v any) (json.RawMessage, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n")), nil
}

// jobAccepted is the 202 body for an async submission.
type jobAccepted struct {
	Job     string `json:"job"`
	Session string `json:"session"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Poll    string `json:"poll"`
}

// jobResponse is the GET /v1/jobs/{id} body. Result is present only on
// done/failed and is the exact body the synchronous handler would have
// written for the same request (modulo wall-clock duration fields).
type jobResponse struct {
	Job      string          `json:"job"`
	Session  string          `json:"session"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	QueuedNs int64           `json:"queued_ns,omitempty"` // submit → dispatch
	RunNs    int64           `json:"run_ns,omitempty"`    // dispatch → completion
	Status   int             `json:"status,omitempty"`    // HTTP status of the execution
	Result   json.RawMessage `json:"result,omitempty"`
}

// submitJob admits async work for a session and writes the 202/429/503
// response. run executes on a worker and must return what the sync
// handler would have written.
func (sv *Server) submitJob(w http.ResponseWriter, s *session, kind string, run func() (int, any)) {
	j, err := sv.jobs.submit(s.id, kind, run)
	switch err {
	case nil:
	case errJobQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(sv.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later", sv.opts.JobQueueDepth)
		return
	case errJobsDraining:
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobAccepted{
		Job: j.id, Session: s.id, Kind: kind, State: jobQueued,
		Poll: "/v1/jobs/" + j.id,
	})
}

// retryAfterSeconds estimates when a queue slot frees up: the recent
// analyze p50 times the queue depth ahead of the caller, spread over the
// worker pool — clamped to [1s, 60s] so the header is always actionable.
func (sv *Server) retryAfterSeconds() int {
	queued, _, _ := sv.jobs.gauges()
	p50 := sv.m.analyzeLatency.stats().P50Ns
	est := time.Duration(p50) * time.Duration(queued+1) / time.Duration(sv.jobs.workers)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (sv *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := sv.jobs.get(id)
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	resp := jobResponse{
		Job: j.id, Session: j.session, Kind: j.kind, State: j.state,
	}
	if !j.started.IsZero() {
		resp.QueuedNs = j.started.Sub(j.created).Nanoseconds()
	}
	if !j.finished.IsZero() {
		resp.RunNs = j.finished.Sub(j.started).Nanoseconds()
		resp.Status = j.status
		resp.Result = j.result
	}
	writeJSON(w, http.StatusOK, resp)
}

// BeginDrain puts the job plane into drain mode: running and queued jobs
// finish, new async submissions are rejected with 503. Synchronous
// requests are unaffected — the HTTP listener's own shutdown handles
// those. Safe to call more than once.
func (sv *Server) BeginDrain() { sv.jobs.beginDrain() }

// WaitJobs blocks until every admitted job has completed, or the timeout
// passes; it reports whether the plane drained fully.
func (sv *Server) WaitJobs(timeout time.Duration) bool { return sv.jobs.wait(timeout) }
