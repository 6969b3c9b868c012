// Job plane coverage: the 202/poll lifecycle, the byte-identity contract
// between async results and synchronous responses, bounded-queue
// admission control (429 + Retry-After), per-session FIFO ordering across
// sync and async jobs, the worker bound on sync work, dropped jobs of
// departed clients, WaitJobs, chaos fault injection, the LRU eviction vs
// running-job race, and the /metrics scrape-under-load audit.
// The concurrency suites here run under -race in CI.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestAsyncIdentity pins the acceptance contract: the body an async job
// stores is the body the synchronous request gets, byte-identical after
// normalizing wall-clock fields. Each case sets up a session twice (an
// edited session stops answering dedup, so the second setup of an edits
// case gets a fresh one) and runs the request sync on the first, async
// on the second.
func TestAsyncIdentity(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		setup func(c *testClient) string
		body  func(async bool) any
	}{
		{"analyze", func(c *testClient) string { return c.create(dlatchConfig(t)).Session },
			func(async bool) any { return analyzeRequest{Force: true, Async: async} }},
		{"edits", func(c *testClient) string {
			id := c.create(withTop(t, 3)).Session
			c.analyze(id)
			return id
		}, func(async bool) any {
			return editsRequest{Script: "cap out 2e-14\nrun\ncap out -1e-14\nrun\n", Async: async}
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			c := newTestClient(t, Options{})
			path := func(id string) string { return "/v1/sessions/" + id + "/" + tc.kind }
			syncSt, syncRaw := c.doRaw("POST", path(tc.setup(c)), tc.body(false))
			if syncSt != http.StatusOK {
				t.Fatalf("sync %s: status %d: %s", tc.kind, syncSt, syncRaw)
			}
			id := tc.setup(c)
			j := c.pollJob(c.submitAsync(path(id), tc.body(true)).Job, 10*time.Second)
			if j.State != jobDone || j.Status != http.StatusOK {
				t.Fatalf("async job = state %s status %d result %s", j.State, j.Status, j.Result)
			}
			if j.Kind != tc.kind || j.Session != id || j.RunNs <= 0 || j.QueuedNs < 0 {
				t.Fatalf("job metadata = %+v", j)
			}
			if got, want := normalizeJSON(t, j.Result), normalizeJSON(t, syncRaw); got != want {
				t.Fatalf("async result differs from sync response:\n--- sync\n%s\n--- async\n%s", want, got)
			}
		})
	}
}

// TestJobPerSessionSerialization proves jobs of one session run one at a
// time, in submission order, even with free worker slots.
func TestJobPerSessionSerialization(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 4})
	serverOf(c).jobs.delay = 30 * time.Millisecond
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
	c := newTestClient(t, Options{JobWorkers: 1, JobQueueDepth: 1})
	serverOf(c).jobs.delay = 80 * time.Millisecond
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
	// One admission rule: a sync request meets the same full queue.
	var e httpError
	if st := c.do("POST", "/v1/sessions/"+a+"/analyze", analyzeRequest{}, &e); st != http.StatusTooManyRequests || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("over-capacity sync analyze: status %d %q, want 429", st, e.Error)
	}

	if r := c.pollJob(j1.Job, 10*time.Second); r.State != jobDone {
		t.Fatalf("job1 = %s", r.State)
	}
	if r := c.pollJob(j2.Job, 10*time.Second); r.State != jobDone {
		t.Fatalf("job2 = %s", r.State)
	}
	m := c.metrics()
	if m.Jobs.Rejected != 2 || m.Jobs.Done != 2 || m.Jobs.Submitted != 2 {
		t.Fatalf("job counters = %+v", m.Jobs)
	}
	if m.Jobs.Capacity != 1 || m.Jobs.Queued != 0 || m.Jobs.Running != 0 {
		t.Fatalf("job gauges = %+v", m.Jobs)
	}
	if m.LatencyNs.JobQueue.Count != 2 {
		t.Fatalf("job queue latency count = %d, want 2", m.LatencyNs.JobQueue.Count)
	}
}

// TestJobDrain pins the shutdown half the plane owns: WaitJobs times
// out while an admitted job is still running, then reports an idle plane
// once every admitted job — the running one and the one queued behind it
// — has finished.
func TestJobDrain(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 1})
	sv := serverOf(c)
	sv.jobs.delay = 100 * time.Millisecond
	id := c.create(dlatchConfig(t)).Session
	first := c.submitAsync("/v1/sessions/"+id+"/analyze", analyzeRequest{Async: true, Force: true})
	second := c.submitAsync("/v1/sessions/"+id+"/analyze", analyzeRequest{Async: true, Force: true})

	if sv.WaitJobs(time.Millisecond) {
		t.Fatal("WaitJobs reported an idle plane with two jobs admitted")
	}
	if !sv.WaitJobs(10 * time.Second) {
		t.Fatal("WaitJobs: plane did not drain")
	}
	for _, acc := range []jobAccepted{first, second} {
		if r := c.pollJob(acc.Job, time.Second); r.State != jobDone {
			t.Fatalf("admitted job %s after WaitJobs = %s, want done", acc.Job, r.State)
		}
	}
	if m := c.metrics(); m.Jobs.Queued != 0 || m.Jobs.Running != 0 || m.Jobs.Done != 2 {
		t.Fatalf("job metrics after WaitJobs = %+v", m.Jobs)
	}
}

// serverOf digs the *Server out of a test client's httptest server.
func serverOf(c *testClient) *Server {
	return c.srv.Config.Handler.(*Server)
}

// TestJobChaosFailEvery pins the fault-injection contract: injected
// failures complete as clean "failed" jobs with an error body, and leave
// the session fully serviceable.
func TestJobChaosFailEvery(t *testing.T) {
	c := newTestClient(t, Options{})
	serverOf(c).jobs.failEvery = 1
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
	// The injected failure never touched the session. The check is a job
	// too, so stop injecting first.
	sv := serverOf(c)
	sv.jobs.mu.Lock()
	sv.jobs.failEvery = 0
	sv.jobs.mu.Unlock()
	if got := c.analyze(id); got.CriticalNs <= 0 {
		t.Fatal("session unusable after injected job failure")
	}
}

// TestEvictionRacesRunningJob is the satellite acceptance: an LRU-evicted
// session with an async job in flight must finish cleanly — no panic, a
// valid result, and no leaked or doubly released arena references. In the
// edits case the eviction drops the session's arena reference before the
// job's copy-on-edit detach would: exactly one of the two releases it.
func TestEvictionRacesRunningJob(t *testing.T) {
	for _, tc := range []struct {
		kind string
		body any
	}{
		{"analyze", analyzeRequest{Async: true, Force: true}},
		{"edits", editsRequest{Script: "cap out 2e-14\nrun\n", Async: true}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			c := newTestClient(t, Options{MaxSessions: 1, SnapshotDir: t.TempDir()})
			serverOf(c).jobs.delay = 100 * time.Millisecond

			// Seed the snapshot cache (this create parses and is
			// immediately the LRU's only resident), then open a session
			// sharing the arena's network.
			c.create(withTop(t, 3))
			shared := c.create(withTop(t, 4))
			if shared.Source != "snapshot" {
				t.Fatalf("shared source = %q, want snapshot", shared.Source)
			}
			if tc.kind == "edits" {
				c.analyze(shared.Session)
			}

			// The job holds the session pointer while MaxSessions=1
			// forces the next create to evict it mid-run.
			acc := c.submitAsync("/v1/sessions/"+shared.Session+"/"+tc.kind, tc.body)
			next := c.create(withTop(t, 5))
			if next.Source != "snapshot" {
				t.Fatalf("next source = %q, want snapshot", next.Source)
			}
			if st := c.do("GET", "/v1/sessions/"+shared.Session, nil, nil); st != http.StatusNotFound {
				t.Fatalf("evicted session still resident: status %d", st)
			}

			j := c.pollJob(acc.Job, 10*time.Second)
			if j.State != jobDone {
				t.Fatalf("job on evicted session = %s: %s", j.State, j.Result)
			}
			var resp struct {
				Report     string          `json:"report"`
				CriticalNs float64         `json:"critical_ns"`
				Barriers   []barrierResult `json:"barriers"`
				Snapshot   *Snapshot       `json:"snapshot"`
			}
			if err := json.Unmarshal(j.Result, &resp); err != nil {
				t.Fatal(err)
			}
			valid := resp.Report != "" && resp.CriticalNs > 0
			if tc.kind == "edits" {
				valid = len(resp.Barriers) == 1 && resp.Snapshot != nil && resp.Snapshot.CriticalNs > 0
			}
			if !valid {
				t.Fatalf("evicted-session %s job produced an invalid result: %s", tc.kind, j.Result)
			}

			// Arena accounting: the eviction released the shared
			// reference even though the job was mid-run; only the live
			// session holds one, and nothing detached.
			m := c.metrics()
			if m.NetArena.SharedSessions != 1 || m.NetArena.Detaches != 0 {
				t.Fatalf("arena after eviction race: %+v", m.NetArena)
			}
			if m.Sessions.Evicted < 2 {
				t.Fatalf("evictions = %d, want >= 2", m.Sessions.Evicted)
			}
		})
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
	// Scrapers: the HTTP surface and the direct MetricsSnapshot call.
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

	// Every analyze, edit script and simulate is a job: the first analyze
	// plus 25 of each kind.
	m := c.metrics()
	if m.Jobs.Done != 76 || m.Edits.Batches != 50 || m.Sim.Requests != 25 {
		t.Fatalf("final counters: jobs=%+v edits=%+v sim=%+v", m.Jobs, m.Edits, m.Sim)
	}
	if m.LatencyNs.JobQueue.Count != 76 {
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

// postAnalyze posts one forced sync analyze from any goroutine and
// returns the status and body (status 0 and the error when none came).
func (c *testClient) postAnalyze(ctx context.Context, id string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", c.srv.URL+"/v1/sessions/"+id+"/analyze",
		strings.NewReader(`{"force":true}`))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// TestSyncJobsBoundedByWorkers: sync work is admitted like async work.
// 16 concurrent forced analyzes of 16 distinct sessions never run more
// than JobWorkers at once, each waits in the queue, and every body
// equals a serial run's.
func TestSyncJobsBoundedByWorkers(t *testing.T) {
	const n = 16
	serial := newTestClient(t, Options{})
	want := make([]string, n)
	for i := range want {
		st, raw, err := serial.postAnalyze(context.Background(), serial.create(withTop(t, i+1)).Session)
		if err != nil || st != http.StatusOK {
			t.Fatalf("serial analyze %d: status %d, err %v", i, st, err)
		}
		want[i] = normalizeJSON(t, raw)
	}

	c := newTestClient(t, Options{JobWorkers: 2})
	sv := serverOf(c)
	sv.jobs.delay = 5 * time.Millisecond
	ids := make([]string, n)
	for i := range ids {
		ids[i] = c.create(withTop(t, i+1)).Session
	}
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-stop:
				sampled <- most
				return
			default:
			}
			if _, running := sv.jobs.gauges(); running > most {
				most = running
			}
		}
	}()
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, raw, err := c.postAnalyze(context.Background(), ids[i])
			if err != nil || st != http.StatusOK {
				t.Errorf("analyze %d: status %d, err %v", i, st, err)
			}
			got[i] = raw
		}(i)
	}
	wg.Wait()
	close(stop)
	if most := <-sampled; most > 2 {
		t.Errorf("%d jobs ran at once, want at most JobWorkers = 2", most)
	}
	for i := range got {
		if normalizeJSON(t, got[i]) != want[i] {
			t.Errorf("session %d: concurrent body differs from the serial run", i)
		}
	}
	if m := c.metrics(); m.LatencyNs.JobQueue.Count != n || m.Jobs.Done != n {
		t.Fatalf("jobs = %+v, job_queue count %d; want %d of each", m.Jobs, m.LatencyNs.JobQueue.Count, n)
	}
}

// TestSyncAnalyzeQueuesBehindAsyncEdits: per-session FIFO holds across
// sync and async requests. A sync analyze sent while the session's async
// edit script waits its turn answers from the snapshot the edit installed.
func TestSyncAnalyzeQueuesBehindAsyncEdits(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	before := c.analyze(id)
	serverOf(c).jobs.delay = 100 * time.Millisecond

	acc := c.submitAsync("/v1/sessions/"+id+"/edits", editsRequest{Script: "cap out 2e-14\nrun\n", Async: true})
	got := c.analyze(id)
	j := c.pollJob(acc.Job, 10*time.Second)
	var ed editsResponse
	if err := json.Unmarshal(j.Result, &ed); err != nil || j.State != jobDone {
		t.Fatalf("edit job = %s: %s", j.State, j.Result)
	}
	if ed.Snapshot.CriticalNs == before.CriticalNs {
		t.Fatalf("the edit left critical_ns at %g; the test cannot tell the snapshots apart", before.CriticalNs)
	}
	if got.Epoch != ed.Snapshot.Epoch || got.CriticalNs != ed.Snapshot.CriticalNs {
		t.Fatalf("sync analyze after the async edit: epoch %d critical %g, want the edit's %d, %g",
			got.Epoch, got.CriticalNs, ed.Snapshot.Epoch, ed.Snapshot.CriticalNs)
	}
}

// TestAbandonedSyncJobNeverRuns: a sync analyze whose client gives up
// while the job is queued is dropped without running and counted.
func TestAbandonedSyncJobNeverRuns(t *testing.T) {
	c := newTestClient(t, Options{JobWorkers: 1})
	sv := serverOf(c)
	id := c.create(dlatchConfig(t)).Session
	c.analyze(id)
	sv.jobs.delay = 300 * time.Millisecond

	// The session's own async edit script holds the only worker.
	acc := c.submitAsync("/v1/sessions/"+id+"/edits", editsRequest{Script: "cap out 2e-14\nrun\n", Async: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.postAnalyze(ctx, id)
		errc <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); sv.MetricsSnapshot().Jobs.Queued != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sync analyze never queued")
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled analyze: err %v", err)
	}
	if !sv.WaitJobs(10 * time.Second) {
		t.Fatal("WaitJobs: plane did not drain")
	}
	if j := c.pollJob(acc.Job, time.Second); j.State != jobDone {
		t.Fatalf("edit job = %s: %s", j.State, j.Result)
	}
	if m := c.metrics(); m.Analyze.Full != 1 || m.Jobs.Abandoned != 1 || m.Jobs.Done != 2 || m.Jobs.Submitted != 3 {
		t.Fatalf("after the abandoned analyze: analyze %+v, jobs %+v", m.Analyze, m.Jobs)
	}
}

// TestJobPanicRetiresSession: a job that panics fails with 500 instead of
// ending the daemon, frees its worker and session slot, and retires the
// session. A job already queued on the session starts over from the last
// published network generation; new lookups get 404.
func TestJobPanicRetiresSession(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			c := newTestClient(t, Options{JobWorkers: 1})
			sv := serverOf(c)
			id := c.create(dlatchConfig(t)).Session
			before := c.analyze(id)
			s := sv.lookup(id)
			sv.jobs.delay = 100 * time.Millisecond

			w := httptest.NewRecorder()
			submitted := make(chan struct{})
			go func() {
				defer close(submitted)
				sv.runJob(w, httptest.NewRequest("POST", "/", nil), s, "analyze", async, func() (int, any) { panic("boom") })
			}()
			for deadline := time.Now().Add(10 * time.Second); sv.MetricsSnapshot().Jobs.Running != 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the panicking job never started")
				}
			}
			// Queued behind the panic; had the session kept its snapshot,
			// this would answer cached.
			if got := c.analyze(id); got.Cached || got.CriticalNs != before.CriticalNs {
				t.Fatalf("queued analyze after the panic: cached %v critical %g, want a fresh run at %g",
					got.Cached, got.CriticalNs, before.CriticalNs)
			}
			<-submitted

			status, body := w.Code, w.Body.Bytes()
			if async {
				var acc jobAccepted
				if err := json.Unmarshal(body, &acc); err != nil {
					t.Fatal(err)
				}
				j := c.pollJob(acc.Job, time.Second)
				status, body = j.Status, j.Result
			}
			if status != http.StatusInternalServerError || !strings.Contains(string(body), "boom") {
				t.Fatalf("panicking job answered %d: %s", status, body)
			}
			if st := c.do("GET", "/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
				t.Fatalf("session after a panicking job: status %d, want 404", st)
			}
			if m := c.metrics(); m.Jobs.Failed != 1 || m.Jobs.Running != 0 || m.Jobs.Queued != 0 || m.Sessions.Live != 0 {
				t.Fatalf("after the panic: jobs %+v, sessions %+v", m.Jobs, m.Sessions)
			}
			c.analyze(c.create(dlatchConfig(t)).Session) // the daemon still serves
		})
	}
}
