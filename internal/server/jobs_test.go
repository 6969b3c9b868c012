// Async job plane coverage: the 202/poll lifecycle, the byte-identity
// contract between async results and synchronous responses, bounded-queue
// admission control (429 + Retry-After), per-session FIFO ordering,
// graceful drain (503 + WaitJobs), chaos fault injection, the LRU
// eviction vs running-job race, and the /metrics scrape-under-load audit.
// The concurrency suites here run under -race in CI.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netlist"
)

// doRaw issues a request and returns the status plus raw body bytes.
func (c *testClient) doRaw(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// submitAsync posts an async request and decodes the 202 acceptance.
func (c *testClient) submitAsync(path string, body any) jobAccepted {
	c.t.Helper()
	var acc jobAccepted
	if st := c.do("POST", path, body, &acc); st != http.StatusAccepted {
		c.t.Fatalf("async submit %s: status %d, want 202", path, st)
	}
	if acc.Job == "" || acc.State != jobQueued || acc.Poll != "/v1/jobs/"+acc.Job {
		c.t.Fatalf("async accept = %+v", acc)
	}
	return acc
}

// pollJob polls one job until it completes, failing the test on timeout.
func (c *testClient) pollJob(id string, timeout time.Duration) jobResponse {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var j jobResponse
		if st := c.do("GET", "/v1/jobs/"+id, nil, &j); st != http.StatusOK {
			c.t.Fatalf("poll %s: status %d", id, st)
		}
		if j.State == jobDone || j.State == jobFailed {
			return j
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %s after %s", id, j.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// normalizeJSON canonicalizes a response body for the async-vs-sync
// identity comparison: wall-clock fields are zeroed (duration_ns varies
// run to run; cached differs when one path serves a current snapshot) and
// the result re-marshals with sorted keys, so equal strings mean
// byte-identical results.
func normalizeJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("normalize: bad JSON %q: %v", raw, err)
	}
	var scrub func(any)
	scrub = func(x any) {
		switch m := x.(type) {
		case map[string]any:
			for k, val := range m {
				switch k {
				case "duration_ns":
					m[k] = 0
				case "cached":
					m[k] = false
				default:
					scrub(val)
				}
			}
		case []any:
			for _, e := range m {
				scrub(e)
			}
		}
	}
	scrub(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAsyncAnalyzeIdentity pins the acceptance contract: the body an
// async analyze job stores is the body the synchronous handler writes,
// byte-identical after normalizing wall-clock fields.
func TestAsyncAnalyzeIdentity(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session

	syncSt, syncRaw := c.doRaw("POST", "/v1/sessions/"+id+"/analyze", analyzeRequest{Force: true})
	if syncSt != http.StatusOK {
		t.Fatalf("sync analyze: status %d", syncSt)
	}

	acc := c.submitAsync("/v1/sessions/"+id+"/analyze", analyzeRequest{Force: true, Async: true})
	j := c.pollJob(acc.Job, 10*time.Second)
	if j.State != jobDone || j.Status != http.StatusOK {
		t.Fatalf("async job = state %s status %d result %s", j.State, j.Status, j.Result)
	}
	if j.Kind != "analyze" || j.Session != id {
		t.Fatalf("job metadata = %+v", j)
	}

	if got, want := normalizeJSON(t, j.Result), normalizeJSON(t, syncRaw); got != want {
		t.Fatalf("async result differs from sync response:\n--- sync\n%s\n--- async\n%s", want, got)
	}

	// The structured fields agree too — same snapshot, same report.
	var syncResp, asyncResp analyzeResponse
	if err := json.Unmarshal(syncRaw, &syncResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(j.Result, &asyncResp); err != nil {
		t.Fatal(err)
	}
	if asyncResp.Report != syncResp.Report || asyncResp.CriticalNs != syncResp.CriticalNs {
		t.Fatal("async snapshot fields differ from sync")
	}
	if j.RunNs <= 0 || j.QueuedNs < 0 {
		t.Fatalf("job timings: queued=%d run=%d", j.QueuedNs, j.RunNs)
	}
}

// TestAsyncEditsIdentity runs the same edit script synchronously and
// asynchronously (on two sessions over the same network with distinct
// directives) and pins identical barrier results.
func TestAsyncEditsIdentity(t *testing.T) {
	c := newTestClient(t, Options{})
	script := "cap out 2e-14\nrun\ncap out -1e-14\nrun\n"

	syncID := c.create(withTop(t, 3)).Session
	c.analyze(syncID)
	syncSt, syncRaw := c.doRaw("POST", "/v1/sessions/"+syncID+"/edits", editsRequest{Script: script})
	if syncSt != http.StatusOK {
		t.Fatalf("sync edits: status %d", syncSt)
	}

	asyncID := c.create(withTop(t, 3)).Session
	if asyncID != syncID {
		// Edited sessions stop answering dedup, so the re-POST built a
		// fresh pristine session — analyze it before editing.
		c.analyze(asyncID)
	}
	acc := c.submitAsync("/v1/sessions/"+asyncID+"/edits", editsRequest{Script: script, Async: true})
	j := c.pollJob(acc.Job, 10*time.Second)
	if j.State != jobDone {
		t.Fatalf("async edits job = %s: %s", j.State, j.Result)
	}

	var syncResp, asyncResp editsResponse
	if err := json.Unmarshal(syncRaw, &syncResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(j.Result, &asyncResp); err != nil {
		t.Fatal(err)
	}
	if len(asyncResp.Barriers) != len(syncResp.Barriers) {
		t.Fatalf("barrier counts: async %d, sync %d", len(asyncResp.Barriers), len(syncResp.Barriers))
	}
	for i := range syncResp.Barriers {
		if asyncResp.Barriers[i].Report != syncResp.Barriers[i].Report {
			t.Fatalf("barrier %d report differs", i)
		}
		if asyncResp.Barriers[i].Incremental != syncResp.Barriers[i].Incremental {
			t.Fatalf("barrier %d incremental flag differs", i)
		}
	}
	if asyncResp.Snapshot.Report != syncResp.Snapshot.Report {
		t.Fatal("final snapshots differ")
	}
}

// TestJobPerSessionSerialization proves jobs of one session run one at a
// time, in submission order, even with free worker slots.
func TestJobPerSessionSerialization(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 4, JobDelay: 30 * time.Millisecond})
	created := c.create(dlatchConfig(t))
	id := created.Session
	c.analyze(id)

	// FIFO: the first script deletes transistor 0, compacting indexes;
	// the second deletes the *original* last index, which only exists
	// before the first script ran. In submission order the second job
	// must fail with an out-of-range index; reversed, both would succeed.
	trans := created.Transistors
	j1 := c.submitAsync("/v1/sessions/"+id+"/edits",
		editsRequest{Script: "del 0\nrun\n", Async: true})
	j2 := c.submitAsync("/v1/sessions/"+id+"/edits",
		editsRequest{Script: fmt.Sprintf("del %d\nrun\n", trans-1), Async: true})

	// While j1 has not finished, j2 must never be dispatched — the free
	// workers may not bypass the per-session queue.
	for {
		// j2 first: a j1 still running when j2 has already been seen
		// dispatched is then a real overlap, not j1 finishing between polls.
		b := c.pollJobState(j2.Job)
		a := c.pollJobState(j1.Job)
		if b == jobRunning || b == jobDone || b == jobFailed {
			if a != jobDone && a != jobFailed {
				t.Fatalf("job2 %s while job1 still %s", b, a)
			}
		}
		if b == jobDone || b == jobFailed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r1 := c.pollJob(j1.Job, 5*time.Second)
	r2 := c.pollJob(j2.Job, 5*time.Second)
	if r1.State != jobDone {
		t.Fatalf("job1 = %s: %s", r1.State, r1.Result)
	}
	if r2.State != jobFailed || r2.Status != http.StatusUnprocessableEntity {
		t.Fatalf("job2 = %s status %d (want failed 422 — FIFO violated?): %s",
			r2.State, r2.Status, r2.Result)
	}
}

// pollJobState fetches a job's current state without waiting.
func (c *testClient) pollJobState(id string) string {
	c.t.Helper()
	var j jobResponse
	if st := c.do("GET", "/v1/jobs/"+id, nil, &j); st != http.StatusOK {
		c.t.Fatalf("poll %s: status %d", id, st)
	}
	return j.State
}

// TestJobQueueFull429 pins admission control: a full queue answers 429
// with a Retry-After header and counts the rejection.
func TestJobQueueFull429(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 1, JobQueueDepth: 1, JobDelay: 80 * time.Millisecond})
	a := c.create(withTop(t, 3)).Session
	b := c.create(withTop(t, 4)).Session

	// First job dispatches (queue empty), second queues (worker busy),
	// third finds the queue at capacity.
	j1 := c.submitAsync("/v1/sessions/"+a+"/analyze", analyzeRequest{Async: true, Force: true})
	j2 := c.submitAsync("/v1/sessions/"+b+"/analyze", analyzeRequest{Async: true, Force: true})

	req, err := http.NewRequest("POST", c.srv.URL+"/v1/sessions/"+a+"/analyze",
		strings.NewReader(`{"async":true,"force":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	if r := c.pollJob(j1.Job, 10*time.Second); r.State != jobDone {
		t.Fatalf("job1 = %s", r.State)
	}
	if r := c.pollJob(j2.Job, 10*time.Second); r.State != jobDone {
		t.Fatalf("job2 = %s", r.State)
	}
	m := c.metrics()
	if m.Jobs.Rejected != 1 || m.Jobs.Done != 2 || m.Jobs.Submitted != 2 {
		t.Fatalf("job counters = %+v", m.Jobs)
	}
	if m.Jobs.Capacity != 1 || m.Jobs.Queued != 0 || m.Jobs.Running != 0 {
		t.Fatalf("job gauges = %+v", m.Jobs)
	}
	if m.LatencyNs.JobQueue.Count != 2 {
		t.Fatalf("job queue latency count = %d, want 2", m.LatencyNs.JobQueue.Count)
	}
}

// TestJobDrain pins graceful-drain semantics: admitted jobs finish, new
// submissions get 503, WaitJobs reports an idle plane.
func TestJobDrain(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 1, JobDelay: 50 * time.Millisecond})
	id := c.create(dlatchConfig(t)).Session
	acc := c.submitAsync("/v1/sessions/"+id+"/analyze", analyzeRequest{Async: true, Force: true})

	sv := serverOf(c)
	sv.BeginDrain()

	var errBody httpError
	if st := c.do("POST", "/v1/sessions/"+id+"/analyze",
		analyzeRequest{Async: true, Force: true}, &errBody); st != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", st)
	}
	if !strings.Contains(errBody.Error, "draining") {
		t.Fatalf("drain error = %q", errBody.Error)
	}
	if !sv.WaitJobs(10 * time.Second) {
		t.Fatal("WaitJobs: plane did not drain")
	}
	if r := c.pollJob(acc.Job, time.Second); r.State != jobDone {
		t.Fatalf("admitted job after drain = %s, want done", r.State)
	}
	// Synchronous requests are unaffected by the job-plane drain.
	if got := c.analyze(id); got.Report == "" {
		t.Fatal("sync analyze failed during drain")
	}
	if m := c.metrics(); !m.Jobs.Draining || m.Jobs.Rejected != 1 {
		t.Fatalf("drain metrics = %+v", m.Jobs)
	}
}

// serverOf digs the *Server out of a test client's httptest server.
func serverOf(c *testClient) *Server {
	return c.srv.Config.Handler.(*Server)
}

// TestJobChaosFailEvery pins the fault-injection contract the load
// harness relies on: injected failures complete as clean "failed" jobs
// with an error body, and leave the session fully serviceable.
func TestJobChaosFailEvery(t *testing.T) {
	c := newTestClient(t, Options{JobFailEvery: 1})
	id := c.create(dlatchConfig(t)).Session

	acc := c.submitAsync("/v1/sessions/"+id+"/analyze", analyzeRequest{Async: true, Force: true})
	j := c.pollJob(acc.Job, 10*time.Second)
	if j.State != jobFailed || j.Status != http.StatusInternalServerError {
		t.Fatalf("chaos job = %s status %d", j.State, j.Status)
	}
	var e httpError
	if err := json.Unmarshal(j.Result, &e); err != nil || !strings.Contains(e.Error, "chaos") {
		t.Fatalf("chaos job result = %s", j.Result)
	}
	if m := c.metrics(); m.Jobs.Failed != 1 || m.Jobs.Done != 0 {
		t.Fatalf("chaos metrics = %+v", m.Jobs)
	}
	// The injected failure never touched the session.
	if got := c.analyze(id); got.CriticalNs <= 0 {
		t.Fatal("session unusable after injected job failure")
	}
}

// TestEvictionRacesRunningJob is the satellite acceptance: an LRU-evicted
// session with an async job in flight must finish cleanly — no panic, a
// valid result, and no leaked arena references.
func TestEvictionRacesRunningJob(t *testing.T) {
	if !netlist.MmapSupported {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	c := newTestClient(t, Options{
		MaxSessions: 1, SnapshotDir: dir, JobDelay: 100 * time.Millisecond,
	})

	// Seed the snapshot cache (this create parses and is immediately the
	// LRU's only resident), then open a shared mapped session.
	c.create(withTop(t, 3))
	shared := c.create(withTop(t, 4))
	if shared.Source != "mmap" {
		t.Fatalf("shared source = %q, want mmap", shared.Source)
	}

	// The job holds the session pointer while MaxSessions=1 forces the
	// next create to evict it mid-run.
	acc := c.submitAsync("/v1/sessions/"+shared.Session+"/analyze",
		analyzeRequest{Async: true, Force: true})
	next := c.create(withTop(t, 5))
	if next.Source != "mmap" {
		t.Fatalf("next source = %q, want mmap", next.Source)
	}
	if st := c.do("GET", "/v1/sessions/"+shared.Session, nil, nil); st != http.StatusNotFound {
		t.Fatalf("evicted session still resident: status %d", st)
	}

	j := c.pollJob(acc.Job, 10*time.Second)
	if j.State != jobDone {
		t.Fatalf("job on evicted session = %s: %s", j.State, j.Result)
	}
	var resp analyzeResponse
	if err := json.Unmarshal(j.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CriticalNs <= 0 || resp.Report == "" {
		t.Fatalf("evicted-session job produced an empty result: %+v", resp)
	}

	// Arena accounting: the eviction released the shared reference even
	// though the job was mid-run; only the live session holds one, the
	// single mapping stays resident, and nothing detached.
	m := c.metrics()
	if m.NetArena.Mappings != 1 || m.NetArena.SharedSessions != 1 || m.NetArena.Detaches != 0 {
		t.Fatalf("arena after eviction race: %+v", m.NetArena)
	}
	if m.Sessions.Evicted < 2 {
		t.Fatalf("evictions = %d, want >= 2", m.Sessions.Evicted)
	}
}

// TestMetricsScrapeUnderLoad is the torn-read audit in executable form:
// concurrent /metrics scrapes race analyzes, edit barriers, simulates and
// async submissions under -race. Every counter is atomic and every gauge
// is read under its owner's lock, so the detector must stay silent and
// every scraped snapshot must be internally sane.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 2, JobQueueDepth: 64})
	id := c.create(dlatchConfig(t)).Session
	c.analyze(id)
	sv := serverOf(c)

	var wg sync.WaitGroup
	start := make(chan struct{})
	// Scrapers: the HTTP surface and the direct snapshot used by expvar.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 150; i++ {
				_, raw := c.doRaw("GET", "/metrics", nil)
				var m MetricsSnapshot
				if err := json.Unmarshal(raw, &m); err != nil {
					t.Errorf("decoding /metrics: %v", err)
					return
				}
				if m.Jobs.Queued < 0 || m.Jobs.Running < 0 || m.Jobs.Running > 2 {
					t.Errorf("torn job gauges: %+v", m.Jobs)
					return
				}
				if !checkDrainBlock(t, raw) {
					return
				}
				_ = sv.MetricsSnapshot()
			}
		}()
	}
	// Edit barriers (alternating cap add/remove keeps the net unchanged).
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 25; i++ {
			c.edits(id, "cap out 1e-15\nrun\ncap out -1e-15\nrun\n")
		}
	}()
	// Async analyze jobs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 25; i++ {
			acc := c.submitAsync("/v1/sessions/"+id+"/analyze", analyzeRequest{Async: true, Force: true})
			c.pollJob(acc.Job, 10*time.Second)
		}
	}()
	// Simulate batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 25; i++ {
			var resp simulateResponse
			c.do("POST", "/v1/sessions/"+id+"/simulate", map[string]any{
				"inputs": []string{"wr", "d"}, "watch": []string{"q"},
				"vectors": []string{"11", "10"},
			}, &resp)
		}
	}()
	close(start)
	wg.Wait()

	m := c.metrics()
	if m.Jobs.Done != 25 || m.Edits.Batches != 50 || m.Sim.Requests != 25 {
		t.Fatalf("final counters: jobs=%+v edits=%+v sim=%+v", m.Jobs, m.Edits, m.Sim)
	}
	if m.LatencyNs.JobQueue.Count != 25 {
		t.Fatalf("job queue latency count = %d", m.LatencyNs.JobQueue.Count)
	}
}

// TestFinishedJobsReleaseSessions: a completed job stays in the
// retention ring for up to jobRetention later completions, and must not
// keep its session — network, analyzer, stage DB — alive with it. Run
// the same create → analyze → delete cycles synchronously and
// asynchronously; with the servers still up (so the ring is live), the
// async arm may hold the job records' result bodies more than the
// control, not the deleted sessions.
func TestFinishedJobsReleaseSessions(t *testing.T) {
	cfg, _ := tilesConfig(t, 1)
	const cycles = 4
	run := func(async bool) uint64 {
		c := newTestClient(t, Options{})
		for i := 0; i < cycles; i++ {
			s := c.create(cfg)
			if async {
				acc := c.submitAsync("/v1/sessions/"+s.Session+"/analyze", analyzeRequest{Async: true})
				if j := c.pollJob(acc.Job, time.Minute); j.State != jobDone {
					t.Fatalf("cycle %d: job %s", i, j.State)
				}
			} else {
				c.analyze(s.Session)
			}
			if st := c.do("DELETE", "/v1/sessions/"+s.Session, nil, nil); st != http.StatusOK {
				t.Fatalf("cycle %d: delete status %d", i, st)
			}
		}
		return liveHeap()
	}
	control := run(false)
	got := run(true)
	t.Logf("live heap after %d cycles: sync %d bytes, then async %d bytes", cycles, control, got)
	if got > 2*control {
		t.Fatalf("live heap after %d async analyze/delete cycles is %d bytes, over twice the synchronous control's %d: finished jobs pin their sessions", cycles, got, control)
	}
}
