// End-to-end coverage of the analysis service over httptest: session
// lifecycle, content-hash dedup, LRU eviction, legacy request bodies, and
// concurrent analyze/edits/read races (exercised under -race in CI).
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// dlatchSim loads the repository-level D-latch netlist used across the
// CLI golden tests.
func dlatchSim(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/dlatch.sim")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dlatchConfig mirrors the CLI golden-test configuration.
func dlatchConfig(t *testing.T) SessionConfig {
	return SessionConfig{
		Name: "dlatch", Sim: dlatchSim(t),
		Tech: "nmos-4u", Model: "slope", Tables: "analytic",
		Rise: []string{"d"}, Fall: []string{"d"},
		Fix:   map[string]string{"wr": "1"},
		Slope: 1e-9, Top: 3,
	}
}

// testClient wraps one httptest server with JSON helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, opts Options) *testClient {
	t.Helper()
	srv := httptest.NewServer(New(opts))
	t.Cleanup(srv.Close)
	return &testClient{t: t, srv: srv}
}

// do issues a request and decodes the JSON reply into out (skipped when
// out is nil), returning the HTTP status.
func (c *testClient) do(method, path string, body, out any) int {
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
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// create loads a session and returns its id.
func (c *testClient) create(cfg SessionConfig) createResponse {
	c.t.Helper()
	var resp createResponse
	if st := c.do("POST", "/v1/sessions", cfg, &resp); st != http.StatusCreated && st != http.StatusOK {
		c.t.Fatalf("create: status %d", st)
	}
	return resp
}

func (c *testClient) analyze(id string) analyzeResponse {
	c.t.Helper()
	var resp analyzeResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/analyze", analyzeRequest{}, &resp); st != http.StatusOK {
		c.t.Fatalf("analyze: status %d", st)
	}
	return resp
}

func (c *testClient) edits(id, script string) editsResponse {
	c.t.Helper()
	var resp editsResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/edits", editsRequest{Script: script}, &resp); st != http.StatusOK {
		c.t.Fatalf("edits: status %d", st)
	}
	return resp
}

func (c *testClient) metrics() MetricsSnapshot {
	c.t.Helper()
	var m MetricsSnapshot
	if st := c.do("GET", "/metrics", nil, &m); st != http.StatusOK {
		c.t.Fatalf("metrics: status %d", st)
	}
	return m
}

func TestSessionLifecycle(t *testing.T) {
	c := newTestClient(t, Options{})

	if st := c.do("GET", "/healthz", nil, nil); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}

	created := c.create(dlatchConfig(t))
	if created.Cached || created.Transistors == 0 {
		t.Fatalf("create = %+v", created)
	}
	id := created.Session

	// Reads before the first analyze are refused, not empty.
	if st := c.do("GET", "/v1/sessions/"+id+"/critical", nil, nil); st != http.StatusConflict {
		t.Errorf("critical before analyze: status %d, want 409", st)
	}
	var errBody httpError
	if st := c.do("POST", "/v1/sessions/"+id+"/edits", editsRequest{Script: "cap out 1e-15\nrun\n"}, &errBody); st != http.StatusConflict {
		t.Errorf("edits before analyze: status %d, want 409", st)
	}

	an := c.analyze(id)
	if an.Cached || !strings.Contains(an.Report, "timing report") || an.CriticalNs <= 0 {
		t.Fatalf("analyze = cached=%v critical=%v report:\n%s", an.Cached, an.CriticalNs, an.Report)
	}

	var crit struct {
		Paths []PathJSON `json:"paths"`
	}
	if st := c.do("GET", "/v1/sessions/"+id+"/critical?n=2", nil, &crit); st != http.StatusOK {
		t.Fatalf("critical: %d", st)
	}
	if len(crit.Paths) == 0 || len(crit.Paths) > 2 || crit.Paths[0].Endpoint == "" {
		t.Fatalf("critical paths = %+v", crit.Paths)
	}

	ed := c.edits(id, "cap out 2e-14\nrun\n")
	if len(ed.Barriers) != 1 {
		t.Fatalf("edits barriers = %+v", ed.Barriers)
	}
	b := ed.Barriers[0]
	if !b.Incremental {
		t.Errorf("output-cap tweak should be incremental, got full: %s", b.Reason)
	}
	if !strings.Contains(b.Status, "re-analysis (incremental") {
		t.Errorf("status line = %q", b.Status)
	}
	if b.Epoch != 1 || ed.Snapshot.Epoch != 1 {
		t.Errorf("epoch = %d / %d, want 1", b.Epoch, ed.Snapshot.Epoch)
	}
	// Reads after the barrier serve the edited snapshot, not the one
	// cached before the edit.
	if again := c.analyze(id); again.Epoch != 1 || again.Report != ed.Snapshot.Report {
		t.Errorf("analyze after edits serves epoch %d, want the barrier's snapshot (epoch 1)", again.Epoch)
	}

	var info sessionInfo
	if st := c.do("GET", "/v1/sessions/"+id, nil, &info); st != http.StatusOK {
		t.Fatalf("info: %d", st)
	}
	if !info.Analyzed || !info.Edited || info.Barriers != 1 {
		t.Errorf("info = %+v", info)
	}

	m := c.metrics()
	if m.Sessions.Created != 1 || m.Analyze.Full != 1 || m.Edits.Incremental != 1 || m.Edits.DrainEpochs != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.LatencyNs.Analyze.Count != 1 || m.LatencyNs.Analyze.P50Ns <= 0 {
		t.Errorf("analyze latency = %+v", m.LatencyNs.Analyze)
	}

	if st := c.do("DELETE", "/v1/sessions/"+id, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: %d", st)
	}
	if st := c.do("GET", "/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
		t.Errorf("after delete: status %d, want 404", st)
	}
}

// TestContentHashDedup pins the cache contract: identical loads share one
// session; a session that has diverged through edits stops answering
// dedup so a re-load gets pristine state.
func TestContentHashDedup(t *testing.T) {
	c := newTestClient(t, Options{})
	cfg := dlatchConfig(t)

	first := c.create(cfg)
	again := c.create(cfg)
	if !again.Cached || again.Session != first.Session {
		t.Fatalf("identical load should dedup: %+v vs %+v", first, again)
	}
	// A different configuration over the same source is a different key.
	other := cfg
	other.Model = "lumped"
	if got := c.create(other); got.Cached || got.Session == first.Session {
		t.Fatalf("different model should not dedup: %+v", got)
	}

	c.analyze(first.Session)
	c.edits(first.Session, "cap out 2e-14\nrun\n")
	fresh := c.create(cfg)
	if fresh.Cached || fresh.Session == first.Session {
		t.Fatalf("edited session must not answer dedup: %+v", fresh)
	}

	m := c.metrics()
	if m.Sessions.Deduped != 1 || m.Sessions.Created != 3 {
		t.Errorf("metrics = %+v", m.Sessions)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newTestClient(t, Options{MaxSessions: 2})
	cfg := dlatchConfig(t)

	ids := make([]string, 3)
	for i := range ids {
		cc := cfg
		cc.Name = fmt.Sprintf("dlatch-%d", i) // distinct content hash
		ids[i] = c.create(cc).Session
	}
	// 0 is the least recently used: evicted by the third insert.
	if st := c.do("GET", "/v1/sessions/"+ids[0], nil, nil); st != http.StatusNotFound {
		t.Errorf("evicted session answered: %d", st)
	}
	for _, id := range ids[1:] {
		if st := c.do("GET", "/v1/sessions/"+id, nil, nil); st != http.StatusOK {
			t.Errorf("resident session %s: %d", id, st)
		}
	}
	// Recency: touch 1 (making 2 the LRU), insert a fourth → 2 evicted.
	c.do("GET", "/v1/sessions/"+ids[1], nil, nil)
	cc := cfg
	cc.Name = "dlatch-3"
	c.create(cc)
	if st := c.do("GET", "/v1/sessions/"+ids[1], nil, nil); st != http.StatusOK {
		t.Errorf("recently used session evicted: %d", st)
	}
	if st := c.do("GET", "/v1/sessions/"+ids[2], nil, nil); st != http.StatusNotFound {
		t.Errorf("LRU session not evicted: %d", st)
	}
	if m := c.metrics(); m.Sessions.Evicted != 2 || m.Sessions.Live != 2 {
		t.Errorf("metrics = %+v", m.Sessions)
	}
}

// TestAnalyzeSnapshotCache: a repeated analyze serves the snapshot, and a
// forced rerun rebuilds it with a byte-identical report.
func TestAnalyzeSnapshotCache(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session

	first := c.analyze(id)
	second := c.analyze(id)
	if !second.Cached {
		t.Error("repeat analyze should serve the snapshot")
	}
	if second.Report != first.Report {
		t.Error("cached report differs")
	}
	var rebuilt analyzeResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/analyze", analyzeRequest{Force: true}, &rebuilt); st != http.StatusOK {
		t.Fatalf("forced analyze: status %d", st)
	}
	if rebuilt.Cached {
		t.Error("force must rebuild")
	}
	if rebuilt.Report != first.Report {
		t.Errorf("forced report differs:\n--- first ---\n%s\n--- forced ---\n%s",
			first.Report, rebuilt.Report)
	}
	if m := c.metrics().Analyze; m.Full != 2 || m.Cached != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestWorkersIdentityOverHTTP pins compatibility with clients written when
// analyze and edits took a "workers" field: the field is ignored, not
// rejected, so a whole session — analyze plus an edit replay — sent with
// {"workers":8} answers 200 with the same reports and structured paths as
// one sent without it.
func TestWorkersIdentityOverHTTP(t *testing.T) {
	script, err := json.Marshal("cap out 2e-14\nrun\nresize 2 6e-6 2e-6\nrun\n")
	if err != nil {
		t.Fatal(err)
	}
	run := func(legacy string) (string, string) {
		c := newTestClient(t, Options{})
		id := c.create(dlatchConfig(t)).Session
		var analyzeBody any
		if legacy != "" {
			analyzeBody = json.RawMessage("{" + legacy + "}")
		}
		var an analyzeResponse
		if st := c.do("POST", "/v1/sessions/"+id+"/analyze", analyzeBody, &an); st != http.StatusOK {
			t.Fatalf("analyze with fields {%s}: status %d", legacy, st)
		}
		editsBody := `{"script":` + string(script)
		if legacy != "" {
			editsBody += "," + legacy
		}
		var ed editsResponse
		if st := c.do("POST", "/v1/sessions/"+id+"/edits", json.RawMessage(editsBody+"}"), &ed); st != http.StatusOK {
			t.Fatalf("edits with fields {%s}: status %d", legacy, st)
		}
		var reports strings.Builder
		for _, b := range ed.Barriers {
			reports.WriteString(b.Status + "\n" + b.Report)
		}
		paths, err := json.Marshal(ed.Snapshot.Paths)
		if err != nil {
			t.Fatal(err)
		}
		return an.Report + reports.String(), string(paths)
	}
	rep, paths := run("")
	legacyRep, legacyPaths := run(`"workers":8`)
	if legacyRep != rep {
		t.Errorf("session transcript differs with a workers field:\n--- without ---\n%s\n--- with ---\n%s", rep, legacyRep)
	}
	if legacyPaths != paths {
		t.Errorf("structured paths differ:\n%s\nvs\n%s", paths, legacyPaths)
	}
}

// checkDrainBlock reports whether the drain block of one raw /metrics body
// says what exists: the seven counters of the event loop, mutually
// consistent, and nothing else. The wire format is part of the contract —
// fleet dashboards key on these literal field names.
func checkDrainBlock(t *testing.T, raw []byte) bool {
	t.Helper()
	var m struct {
		Drain map[string]int64 `json:"drain"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Errorf("decoding /metrics: %v\n%s", err, raw)
		return false
	}
	d, ok := m.Drain, true
	for _, key := range []string{"pops", "stale_pops", "max_queue", "improved", "earlier", "tie_lost", "pruned"} {
		if _, has := d[key]; !has {
			t.Errorf("/metrics drain block lacks %q: %v", key, d)
			ok = false
		}
	}
	if len(d) != 7 {
		t.Errorf("/metrics drain block carries %d keys, want the seven: %v", len(d), d)
		ok = false
	}
	if d["improved"]+d["earlier"]+d["tie_lost"]+d["pruned"] <= 0 || d["stale_pops"] > d["pops"] ||
		d["max_queue"] <= 0 || d["max_queue"] > d["pops"] {
		t.Errorf("inconsistent drain counters: %v", d)
		ok = false
	}
	return ok
}

// TestDrainMetricsExposed: after an analyze, /metrics exposes
// the drain's queue and candidate counters, consistent with one another, and
// nothing else in the drain block.
func TestDrainMetricsExposed(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	c.analyze(id)
	_, raw := c.doRaw("GET", "/metrics", nil)
	checkDrainBlock(t, raw)
}

// TestConcurrentAnalyzeEdits hammers one session with concurrent
// mutators and readers. Run under -race in CI: the job plane must
// serialize analyze/edits while snapshot and session-info reads stay
// lock-free.
func TestConcurrentAnalyzeEdits(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	c.analyze(id)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	post := func(path string, body any) {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(body)
		resp, err := c.srv.Client().Post(c.srv.URL+path, "application/json", &buf)
		if err != nil {
			errs <- err.Error()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			errs <- fmt.Sprintf("%s: %d", path, resp.StatusCode)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				sign := "2e-15"
				if (i+j)%2 == 1 {
					sign = "-2e-15"
				}
				post("/v1/sessions/"+id+"/edits", editsRequest{
					Script: fmt.Sprintf("cap out %s\nrun\n", sign),
				})
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				post("/v1/sessions/"+id+"/analyze", analyzeRequest{Force: true})
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 12; j++ {
				path := "/v1/sessions/" + id // session info reads the published counts
				if j%2 == 0 {
					path += "/critical"
				}
				resp, err := c.srv.Client().Get(c.srv.URL + path)
				if err != nil {
					errs <- err.Error()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The session survived and still answers coherently.
	an := c.analyze(id)
	if !strings.Contains(an.Report, "timing report") {
		t.Errorf("post-race report:\n%s", an.Report)
	}
}

// TestInfoDuringEditScript reads session info in a loop while an edit
// script adds and removes a device barrier after barrier. After the first
// script the session's network is the analyzer's own clone, and every
// later barrier edits it in place, so info must answer from the counts the
// job publishes, never from the network: under -race (CI runs this in
// short mode) a read of the network here is a reported race, and every
// answer must be one the script passes through.
func TestInfoDuringEditScript(t *testing.T) {
	c := newTestClient(t, Options{})
	cr := c.create(dlatchConfig(t))
	id := cr.Session
	c.analyze(id)
	c.edits(id, "cap out 1e-15\nrun\n") // the analyzer clones the loaded network
	var script strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&script, "add nenh d qb tap%d\nrun\ndel %d\nrun\n", i, cr.Transistors)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reads := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := c.srv.Client().Get(c.srv.URL + "/v1/sessions/" + id)
			if err != nil {
				t.Error(err)
				return
			}
			var inf sessionInfo
			err = json.NewDecoder(resp.Body).Decode(&inf)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			reads++
			// Each add names a fresh net, so nodes only grow; the device
			// count steps between the loaded one and one more.
			if inf.Transistors != cr.Transistors && inf.Transistors != cr.Transistors+1 ||
				inf.Nodes < cr.Nodes || inf.Nodes > cr.Nodes+12 {
				t.Errorf("info mid-script: %d nodes, %d transistors (loaded %d, %d)",
					inf.Nodes, inf.Transistors, cr.Nodes, cr.Transistors)
				return
			}
		}
	}()
	resp := c.edits(id, script.String())
	close(stop)
	wg.Wait()
	if len(resp.Barriers) != 24 {
		t.Errorf("%d barriers ran, want 24", len(resp.Barriers))
	}
	var inf sessionInfo
	c.do("GET", "/v1/sessions/"+id, nil, &inf)
	if inf.Nodes != cr.Nodes+12 || inf.Transistors != cr.Transistors || inf.Barriers != 25 {
		t.Errorf("info after the script: %+v, want %d nodes, %d transistors, 25 barriers",
			inf, cr.Nodes+12, cr.Transistors)
	}
	t.Logf("%d reads while the script ran", reads)
}

func TestRequestErrors(t *testing.T) {
	c := newTestClient(t, Options{})

	// Malformed / invalid creates.
	if st := c.do("POST", "/v1/sessions", map[string]string{}, nil); st != http.StatusBadRequest {
		t.Errorf("empty create: %d", st)
	}
	bad := dlatchConfig(t)
	bad.Tech = "ge-5"
	if st := c.do("POST", "/v1/sessions", bad, nil); st != http.StatusBadRequest {
		t.Errorf("bad tech: %d", st)
	}
	bad = dlatchConfig(t)
	bad.Model = "psychic"
	if st := c.do("POST", "/v1/sessions", bad, nil); st != http.StatusBadRequest {
		t.Errorf("bad model: %d", st)
	}
	bad = dlatchConfig(t)
	bad.Sim = "e broken line"
	if st := c.do("POST", "/v1/sessions", bad, nil); st != http.StatusBadRequest {
		t.Errorf("bad sim: %d", st)
	}
	bad = dlatchConfig(t)
	bad.Fix = map[string]string{"wr": "7"}
	id := c.create(bad).Session
	if st := c.do("POST", "/v1/sessions/"+id+"/analyze", nil, nil); st != http.StatusBadRequest {
		t.Errorf("bad fix value surfaces at analyze: %d", st)
	}

	// Unknown session ids.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/nope"},
		{"DELETE", "/v1/sessions/nope"},
		{"POST", "/v1/sessions/nope/analyze"},
		{"POST", "/v1/sessions/nope/edits"},
		{"GET", "/v1/sessions/nope/critical"},
	} {
		if st := c.do(probe.method, probe.path, editsRequest{Script: "run"}, nil); st != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, st)
		}
	}

	// Script errors carry line positions; applied barriers are reported.
	id = c.create(dlatchConfig(t)).Session
	c.analyze(id)
	var body struct {
		Error    string          `json:"error"`
		Barriers []barrierResult `json:"barriers"`
	}
	st := c.do("POST", "/v1/sessions/"+id+"/edits",
		editsRequest{Script: "cap out 1e-15\nrun\nfrobnicate q\n"}, &body)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("bad script: %d", st)
	}
	if !strings.Contains(body.Error, "script:3") {
		t.Errorf("error lacks position: %q", body.Error)
	}
	if len(body.Barriers) != 1 {
		t.Errorf("applied barriers not reported: %+v", body.Barriers)
	}
	if st := c.do("POST", "/v1/sessions/"+id+"/edits", editsRequest{}, nil); st != http.StatusBadRequest {
		t.Errorf("missing script: %d", st)
	}
	if st := c.do("GET", "/v1/sessions/"+id+"/critical?n=zebra", nil, nil); st != http.StatusBadRequest {
		t.Errorf("bad n: %d", st)
	}
}

// TestBodyLimit: every body-reading endpoint answers 413 to a body past
// the limit and still serves one exactly at it. The limit is shrunk for
// the test (the real one, MaxBodyBytes, is sized for a chip's .sim
// text); the enforcement is the same code.
func TestBodyLimit(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	c.analyze(id)

	// pad stretches a JSON object body to exactly n bytes with trailing
	// spaces inside the braces, which the decoder must read through.
	pad := func(body string, n int) string {
		if len(body) > n || body[len(body)-1] != '}' {
			t.Fatalf("cannot pad %q to %d bytes", body, n)
		}
		return body[:len(body)-1] + strings.Repeat(" ", n-len(body)) + "}"
	}
	createBody, err := json.Marshal(withTop(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	limit := len(createBody) + 64
	serverOf(c).maxBody = int64(limit)

	for _, ep := range []struct {
		name, path, body string
		ok               int
	}{
		{"create", "/v1/sessions", string(createBody), http.StatusCreated},
		{"analyze", "/v1/sessions/" + id + "/analyze", `{"force":true}`, http.StatusOK},
		{"edits", "/v1/sessions/" + id + "/edits", `{"script":"cap out 2e-14\nrun\n"}`, http.StatusOK},
		{"simulate", "/v1/sessions/" + id + "/simulate", `{"inputs":["wr","d"],"vectors":["11"]}`, http.StatusOK},
	} {
		post := func(body string) (int, string) {
			resp, err := c.srv.Client().Post(c.srv.URL+ep.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(raw)
		}
		if st, raw := post(pad(ep.body, limit+1)); st != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: one byte past the limit: status %d (%s), want 413", ep.name, st, raw)
		}
		if st, raw := post(pad(ep.body, limit)); st != ep.ok {
			t.Errorf("%s: exactly at the limit: status %d (%s), want %d", ep.name, st, raw, ep.ok)
		}
	}
	if MaxBodyBytes < 200<<20 {
		t.Errorf("MaxBodyBytes = %d: below the 189 MB .sim text of chip:64,40", MaxBodyBytes)
	}
}

// TestFixErrorDeterministic: a session whose fix directive names two
// unknown nodes fails every analyze with the same error, the first name in
// sorted order, however Go orders the map.
func TestFixErrorDeterministic(t *testing.T) {
	c := newTestClient(t, Options{})
	cfg := dlatchConfig(t)
	cfg.Fix = map[string]string{"zz_nope": "1", "aa_nope": "0"}
	id := c.create(cfg).Session
	for i := 0; i < 20; i++ {
		var e httpError
		if st := c.do("POST", "/v1/sessions/"+id+"/analyze", analyzeRequest{}, &e); st != http.StatusBadRequest {
			t.Fatalf("analyze %d: status %d, want 400", i, st)
		}
		if want := `fix: no node named "aa_nope"`; e.Error != want {
			t.Fatalf("analyze %d: error %q, want %q", i, e.Error, want)
		}
	}
}
