// The job plane: every request that touches a session's analyzer or
// batch engine — analyze, edit script, simulate — runs as a job on a
// bounded worker pool. A synchronous request submits and waits for its
// job; {"async": true} answers 202 with a job id instead, and the client
// polls GET /v1/jobs/{id} until the job is done or failed. Both run the
// same function, so an async result is the synchronous body modulo the
// wall-clock duration fields — pinned by TestAsyncIdentity.
//
// Admission and ordering:
//
//   - The queue is bounded (Options.JobQueueDepth). A full queue rejects
//     sync and async submissions alike with 429 + Retry-After instead of
//     buffering unboundedly — the backpressure signal a gateway needs
//     for load shedding.
//   - Jobs of one session execute in submission order, one at a time
//     (per-session FIFO via the busy set below). That slot is the
//     session's only lock: analyzer, batch engine and network generation
//     are touched by nothing else. Jobs of different sessions run
//     concurrently up to Options.JobWorkers.
//   - A queued sync job whose client has gone is dropped, never run, and
//     counted in jobs.abandoned. A started job runs to completion.
//   - Shutdown: the listener's Shutdown stops admission and waits for
//     sync requests (and so their jobs); Server.WaitJobs then waits for
//     the admitted async jobs. cmd/crystald runs both against one
//     deadline.
//
// Fault injection: the plane's delay and failEvery fields stretch every
// execution and fail every Nth one with a synthetic 500. Only this
// package's tests set them; they are not options.
package server

import (
	"bytes"
	"context"
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

// job is one admitted unit of session work. Mutable fields are guarded by
// the owning plane's mutex; run is called exactly once, outside the lock.
// A sync job has no id and is never retained: it hands its value to the
// waiting handler through done. An async job keeps its marshalled result
// for polls.
type job struct {
	id      string // async only
	session string
	kind    string // "analyze", "edits" or "simulate"
	run     func() (int, any)
	ctx     context.Context // sync only: the waiting request's context
	done    chan struct{}   // sync only: closed when the job ran or was dropped

	state    string
	status   int             // HTTP status of the completed execution; 0 if dropped
	value    any             // sync: the body to write
	result   json.RawMessage // async: the body, marshalled for polls
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

	mu      sync.Mutex
	cond    *sync.Cond // signalled when the plane may have gone idle
	byID    map[string]*job
	queue   []*job          // admitted, undispatched, submission order
	busy    map[string]bool // session ids with a job executing
	running int
	seq     int64
	execs   int64    // lifetime executions started (fault-injection counter)
	history []string // completed async job ids, oldest first, for retention
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

// submit admits one job, or returns nil when the queue is full. A sync
// job is dropped unrun if ctx is done before it is dispatched. The
// returned job is already dispatched if a worker slot and its session
// are free.
func (p *jobPlane) submit(ctx context.Context, async bool, session, kind string, run func() (int, any)) *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) >= p.depth {
		p.m.jobsRejected.Add(1)
		return nil
	}
	j := &job{session: session, kind: kind, run: run, state: jobQueued, created: time.Now()}
	if async {
		p.seq++
		j.id = fmt.Sprintf("j%d", p.seq)
		p.byID[j.id] = j
	} else {
		j.ctx, j.done = ctx, make(chan struct{})
	}
	p.queue = append(p.queue, j)
	p.m.jobsSubmitted.Add(1)
	p.kickLocked()
	return j
}

// kickLocked dispatches queued jobs onto free worker slots, skipping
// sessions that already have a job executing (per-session FIFO: a skipped
// session's next job is dispatched by the completion of its predecessor)
// and dropping the sync jobs whose client has gone. Callers hold p.mu.
func (p *jobPlane) kickLocked() {
	for p.running < p.workers {
		picked := -1
		for i := 0; i < len(p.queue) && picked < 0; i++ {
			if j := p.queue[i]; j.ctx != nil && j.ctx.Err() != nil {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				i--
				p.m.jobsAbandoned.Add(1)
				close(j.done)
			} else if !p.busy[j.session] {
				picked = i
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
	var status int
	var v any
	if injectFail {
		status, v = fail(http.StatusInternalServerError, "chaos: injected job failure")
	} else {
		status, v = j.run()
	}
	var body json.RawMessage
	if j.done == nil { // async: the result outlives the handler
		var err error
		if body, err = marshalBody(v); err != nil { // cannot happen for the response structs
			status = http.StatusInternalServerError
			body = json.RawMessage(fmt.Sprintf(`{"error":%q}`, err.Error()))
		}
	}

	p.mu.Lock()
	// The closure holds the session — network, analyzer, stage DB — and
	// an async job record outlives it by up to jobRetention completions.
	j.run = nil
	j.status = status
	j.finished = time.Now()
	if status >= 400 {
		j.state = jobFailed
		p.m.jobsFailed.Add(1)
	} else {
		j.state = jobDone
		p.m.jobsDone.Add(1)
	}
	if j.done != nil {
		j.value = v
		close(j.done)
	} else {
		j.result = body
		p.history = append(p.history, j.id)
		for len(p.history) > jobRetention {
			delete(p.byID, p.history[0])
			p.history = p.history[1:]
		}
	}
	delete(p.busy, j.session)
	p.running--
	p.kickLocked()
	p.cond.Broadcast()
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
func (p *jobPlane) gauges() (queued, running int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.running
}

// get returns a point-in-time copy of one async job (nil if unknown or
// aged out of retention).
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
// done/failed and is the exact body the synchronous request would have
// got (modulo wall-clock duration fields).
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

// runJob runs one unit of session work on the plane and answers for it:
// 429 + Retry-After on a full queue, 202 + job id when async, else the
// status and body run returned, once the job has run. run executes on a
// worker and is the session's only writer while it does. A panic in run
// fails the job with 500 and retires the session (Server.drop); the
// daemon and every other session keep serving.
func (sv *Server) runJob(w http.ResponseWriter, r *http.Request, s *session, kind string, async bool, run func() (int, any)) {
	j := sv.jobs.submit(r.Context(), async, s.id, kind, func() (status int, v any) {
		defer func() {
			if e := recover(); e != nil {
				sv.drop(s)
				status, v = fail(http.StatusInternalServerError, "%s panicked: %v; session %s dropped", kind, e, s.id)
			}
		}()
		return run()
	})
	switch {
	case j == nil:
		w.Header().Set("Retry-After", strconv.Itoa(sv.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later", sv.opts.JobQueueDepth)
	case async:
		writeJSON(w, http.StatusAccepted, jobAccepted{
			Job: j.id, Session: s.id, Kind: kind, State: jobQueued,
			Poll: "/v1/jobs/" + j.id,
		})
	default:
		<-j.done
		if j.status != 0 { // 0: dropped unrun, and the client is gone
			writeJSON(w, j.status, j.value)
		}
	}
}

// retryAfterSeconds estimates when a queue slot frees up: the recent
// analyze p50 times the queue depth ahead of the caller, spread over the
// worker pool — clamped to [1s, 60s] so the header is always actionable.
func (sv *Server) retryAfterSeconds() int {
	queued, _ := sv.jobs.gauges()
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

// WaitJobs blocks until every admitted job has completed, or the timeout
// passes; it reports whether the plane went idle. Call it once the
// listener's Shutdown has stopped admission.
func (sv *Server) WaitJobs(timeout time.Duration) bool { return sv.jobs.wait(timeout) }
