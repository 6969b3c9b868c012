package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/tech"
)

// serviceClients is the closed loop's client count: each client waits for a
// reply before its next request, as a designer at an editor does. Two, because
// the load comes from this one process on a two-core reference box.
func serviceClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// The endpoints a scripted session calls, in ledger order.
var endpoints = []string{"create_cold", "create_warm", "create_dedup", "analyze", "edits", "critical", "simulate", "delete", "job_poll"}

// circuit is one corpus entry as a client posts it.
type circuit struct {
	spec        string
	cfg         server.SessionConfig
	transistors int
	inputs      int
	output      string // the net the session's edits load
}

func buildCircuit(spec string) (*circuit, error) {
	nw, err := gen.Build(spec, tech.NMOS4())
	if err != nil {
		return nil, err
	}
	var sim bytes.Buffer
	if err := netlist.WriteSim(&sim, nw); err != nil {
		return nil, err
	}
	if len(nw.Outputs()) == 0 || len(nw.Inputs()) == 0 {
		return nil, fmt.Errorf("%s: corpus circuits need inputs and outputs", spec)
	}
	d := directivesFor(spec)
	return &circuit{
		spec:        spec,
		cfg:         server.SessionConfig{Name: spec, Sim: sim.String(), Fix: d.fixed, LoopBreak: d.loopBreak},
		transistors: len(nw.Trans),
		inputs:      len(nw.Inputs()),
		output:      nw.Outputs()[0].Name,
	}, nil
}

// service is one daemon under load: crystald's handler in-process behind a
// real loopback HTTP listener, snapshot cache and shared arena on.
type service struct {
	e      *env
	corpus []*circuit
	sv     *server.Server
	ts     *httptest.Server

	mu       sync.Mutex
	latMs    map[string][]float64 // per endpoint
	overhead []float64            // client latency − server duration_ns, ms
	ops      int
	first    map[string]string // client/spec → first normalized analyze body
}

// start is the workload's set-up: build the corpus, start the daemon on a
// fresh snapshot directory, and load every circuit once so that its snapshot
// exists — from then on a create under a circuit's own name is warm (mmap)
// and one under a fresh name is cold (parse), whichever client gets there
// first.
func (s *service) start() error {
	s.stop()
	s.corpus = s.corpus[:0]
	for _, spec := range s.e.sz.corpus {
		c, err := buildCircuit(spec)
		if err != nil {
			return err
		}
		s.corpus = append(s.corpus, c)
	}
	dir := filepath.Join(s.e.tmp, "snapshots")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	s.sv = server.New(server.Options{MaxSessions: 8, DefaultWorkers: 1, SnapshotDir: dir})
	s.ts = httptest.NewServer(s.sv)
	for _, c := range s.corpus {
		var created struct {
			Session string `json:"session"`
		}
		if err := s.call(nil, -1, "", "POST", "/v1/sessions", c.cfg, http.StatusCreated, &created); err != nil {
			return err
		}
		if err := s.call(nil, -1, "", "DELETE", "/v1/sessions/"+created.Session, nil, http.StatusOK, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *service) stop() {
	if s.ts != nil {
		s.ts.Close()
		s.sv.WaitJobs(5 * time.Second)
		s.ts, s.sv = nil, nil
	}
}

// call issues one request and decodes the reply. endpoint, when non-empty,
// is the ledger row the latency is recorded under; the span hangs off parent.
func (s *service) call(tr *tracer, parent int, endpoint, method, path string, body any, wantStatus int, into any) error {
	_, err := s.callRaw(tr, parent, endpoint, method, path, body, wantStatus, into)
	return err
}

func (s *service) callRaw(tr *tracer, parent int, endpoint, method, path string, body any, wantStatus int, into any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	sp := tr.start(parent, method+" "+routeOf(path), "server", -1)
	t0 := time.Now()
	resp, err := s.ts.Client().Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if endpoint != "" {
		s.mu.Lock()
		s.latMs[endpoint] = append(s.latMs[endpoint], d.Seconds()*1e3)
		s.ops++
		s.mu.Unlock()
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			return nil, fmt.Errorf("%s %s: bad body: %w", method, path, err)
		}
	}
	return raw, nil
}

// routeOf replaces session and job ids by a placeholder, so spans of one
// endpoint share a name.
func routeOf(path string) string {
	path, _, _ = strings.Cut(path, "?")
	parts := strings.Split(path, "/")
	for i := range parts {
		if i > 0 && (parts[i-1] == "sessions" || parts[i-1] == "jobs") {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

// normalize makes two analyze bodies of one circuit comparable: wall-clock
// fields zeroed, and the session's network name (fresh for a cold create)
// replaced by the spec.
func normalize(raw []byte, name, spec string) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
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
			for _, el := range m {
				scrub(el)
			}
		}
	}
	scrub(v)
	out, err := json.Marshal(v)
	return strings.ReplaceAll(string(out), name, spec), err
}

type analyzeBody struct {
	CriticalNs      float64 `json:"critical_ns"`
	StagesEvaluated int     `json:"stages_evaluated"`
	DurationNs      int64   `json:"duration_ns"`
}

// session plays one scripted session: create → analyze → 4 × (edits →
// critical) → simulate → delete. Every reply is checked; the first failure
// ends the session.
func (s *service) session(tr *tracer, client, index int, c *circuit, cold, async bool, rng *rand.Rand) {
	e := s.e
	top := tr.start(-1, "session", "bench", index)
	defer tr.end(top)
	fail := func(err error) { // attempt, for the concurrent clients
		s.mu.Lock()
		e.attempt(err)
		s.mu.Unlock()
	}

	// create: a fresh name is a new network identity and parses; the
	// circuit's own name finds its snapshot and maps it. Clients differ in
	// top-N only, so they share snapshots and mappings but never a session.
	cfg := c.cfg
	cfg.Top = 5 + client
	endpoint, source := "create_warm", "mmap"
	if !netlist.MmapSupported {
		source = "snapshot"
	}
	if cold {
		cfg.Name = fmt.Sprintf("%s#c%d-%d", c.spec, client, index)
		endpoint, source = "create_cold", "parse"
	}
	var created struct {
		Session     string `json:"session"`
		Cached      bool   `json:"cached"`
		Source      string `json:"source"`
		Transistors int    `json:"transistors"`
	}
	err := s.call(tr, top, endpoint, "POST", "/v1/sessions", cfg, http.StatusCreated, &created)
	if err == nil && (created.Source != source || created.Transistors != c.transistors) {
		err = fmt.Errorf("create %s: source %q transistors %d, want %q %d", cfg.Name, created.Source, created.Transistors, source, c.transistors)
	}
	fail(err)
	if err != nil {
		return
	}
	id := "/v1/sessions/" + created.Session
	defer func() {
		fail(s.call(tr, top, "delete", "DELETE", id, nil, http.StatusOK, nil))
	}()

	if index%4 == 0 { // the editor reloads the same file: content-hash dedup
		var again struct {
			Session string `json:"session"`
			Cached  bool   `json:"cached"`
		}
		err := s.call(tr, top, "create_dedup", "POST", "/v1/sessions", cfg, http.StatusOK, &again)
		if err == nil && (!again.Cached || again.Session != created.Session) {
			err = fmt.Errorf("re-create %s: cached %v session %s, want the pristine session %s", cfg.Name, again.Cached, again.Session, created.Session)
		}
		fail(err)
		if err != nil {
			return
		}
	}

	// analyze, synchronously or through the job plane.
	var raw []byte
	t0 := time.Now()
	if !async {
		raw, err = s.callRaw(tr, top, "", "POST", id+"/analyze", map[string]any{}, http.StatusOK, nil)
	} else {
		raw, err = s.analyzeAsync(tr, top, id)
	}
	lat := time.Since(t0).Seconds() * 1e3
	var body analyzeBody
	if err == nil {
		err = json.Unmarshal(raw, &body)
	}
	if want := e.goldens[c.spec]; err == nil && (body.CriticalNs != want.CriticalNs || body.StagesEvaluated != want.Stages) {
		err = fmt.Errorf("analyze %s: critical %.6f ns, %d stages; golden %.6f ns, %d", cfg.Name, body.CriticalNs, body.StagesEvaluated, want.CriticalNs, want.Stages)
	}
	if err == nil {
		var norm string
		if norm, err = normalize(raw, cfg.Name, c.spec); err == nil {
			key := fmt.Sprintf("%d/%s", client, c.spec)
			s.mu.Lock()
			if first, seen := s.first[key]; !seen {
				s.first[key] = norm
			} else if first != norm {
				err = fmt.Errorf("analyze %s: body differs from the first one for this circuit (sync and async must agree modulo duration_ns)", cfg.Name)
			}
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.latMs["analyze"] = append(s.latMs["analyze"], lat)
	s.ops++
	if err == nil && !async {
		s.overhead = append(s.overhead, lat-float64(body.DurationNs)/1e6)
	}
	s.mu.Unlock()
	fail(err)
	if err != nil {
		return
	}

	// Four edit barriers, each followed by a critical-path read that must
	// see exactly the snapshot the barrier installed.
	load := (5 + 35*rng.Float64()) * 1e-15
	for k := 0; k < 4; k++ {
		var edited struct {
			Barriers []struct {
				DurationNs int64 `json:"duration_ns"`
			} `json:"barriers"`
			Snapshot *struct {
				Epoch      uint64  `json:"epoch"`
				CriticalNs float64 `json:"critical_ns"`
			} `json:"snapshot"`
		}
		script := fmt.Sprintf("cap %s %g\nrun\n", c.output, load)
		load = -load
		t0 := time.Now()
		err := s.call(tr, top, "edits", "POST", id+"/edits", map[string]any{"script": script}, http.StatusOK, &edited)
		lat := time.Since(t0).Seconds() * 1e3
		if err == nil && (len(edited.Barriers) != 1 || edited.Snapshot == nil) {
			err = fmt.Errorf("edits %s: %d barriers, want 1 and a snapshot", cfg.Name, len(edited.Barriers))
		}
		fail(err)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.overhead = append(s.overhead, lat-float64(edited.Barriers[0].DurationNs)/1e6)
		s.mu.Unlock()

		var crit struct {
			Epoch      uint64  `json:"epoch"`
			CriticalNs float64 `json:"critical_ns"`
		}
		err = s.call(tr, top, "critical", "GET", id+"/critical?n=3", nil, http.StatusOK, &crit)
		if err == nil && (crit.Epoch != edited.Snapshot.Epoch || crit.CriticalNs != edited.Snapshot.CriticalNs) {
			err = fmt.Errorf("critical %s: epoch %d %.6f ns, the barrier installed epoch %d %.6f ns", cfg.Name, crit.Epoch, crit.CriticalNs, edited.Snapshot.Epoch, edited.Snapshot.CriticalNs)
		}
		fail(err)
		if err != nil {
			return
		}
	}

	// simulate: 64 seeded vectors over every input.
	const vectors = 64
	vecs := make([]string, vectors)
	for i := range vecs {
		row := make([]byte, c.inputs)
		for j := range row {
			row[j] = '0' + byte(rng.Intn(2))
		}
		vecs[i] = string(row)
	}
	var sim struct {
		Vectors int               `json:"vectors"`
		Results []json.RawMessage `json:"results"`
	}
	err = s.call(tr, top, "simulate", "POST", id+"/simulate", map[string]any{"vectors": vecs}, http.StatusOK, &sim)
	if err == nil && (sim.Vectors != vectors || len(sim.Results) != vectors) {
		err = fmt.Errorf("simulate %s: %d vectors, %d results, want %d", cfg.Name, sim.Vectors, len(sim.Results), vectors)
	}
	fail(err)
}

// analyzeAsync submits an analyze to the job plane and polls it to the end,
// returning the job's result: the body the synchronous handler would send.
func (s *service) analyzeAsync(tr *tracer, parent int, id string) ([]byte, error) {
	var accepted struct {
		Job string `json:"job"`
	}
	if err := s.call(tr, parent, "", "POST", id+"/analyze", map[string]any{"async": true}, http.StatusAccepted, &accepted); err != nil {
		return nil, err
	}
	pause := 500 * time.Microsecond
	for deadline := time.Now().Add(60 * time.Second); ; {
		var job struct {
			State  string          `json:"state"`
			Status int             `json:"status"`
			Result json.RawMessage `json:"result"`
		}
		if err := s.call(tr, parent, "job_poll", "GET", "/v1/jobs/"+accepted.Job, nil, http.StatusOK, &job); err != nil {
			return nil, err
		}
		switch {
		case job.State == "done" && job.Status == http.StatusOK:
			return job.Result, nil
		case job.State == "done" || job.State == "failed":
			return nil, fmt.Errorf("job %s: %s with status %d: %.200s", accepted.Job, job.State, job.Status, job.Result)
		case time.Now().After(deadline):
			return nil, fmt.Errorf("job %s still %s after 60 s", accepted.Job, job.State)
		}
		time.Sleep(pause)
		if pause < 8*time.Millisecond {
			pause *= 2
		}
	}
}

// playOne runs one client's sessions until more() says stop.
func (s *service) playOne(tr *tracer, client int, next []int, rngs []*rand.Rand, more func(played int) bool) {
	cycle := s.e.sz.cycle
	for played := 0; more(played); played++ {
		index := next[client]
		next[client]++
		slot, cold, async := sessionPlan(len(cycle), s.e.seed, client, index)
		s.session(tr, client, index, s.corpus[cycle[slot]], cold, async, rngs[client])
	}
}

// play runs every client concurrently and returns the wall time.
func (s *service) play(tr *tracer, next []int, rngs []*rand.Rand, more func(played int) bool) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for client := range rngs {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			s.playOne(tr, client, next, rngs, more)
		}(client)
	}
	wg.Wait()
	return time.Since(t0)
}

// warmUp plays one pass of the cycle per client, one client after the other
// and with the heap collected after every session, so that the memory
// measured afterwards — the daemon with its snapshot cache, arena and job
// ring, no live sessions — and the high-water mark on the way there are what
// the sessions needed, not which two happened to overlap or where the
// collector's pacing stood.
func (s *service) warmUp(next []int, rngs []*rand.Rand) {
	for client := range rngs {
		s.playOne(nil, client, next, rngs, func(played int) bool {
			runtime.GC()
			return played < len(s.e.sz.cycle)
		})
	}
}

// sessionPlan says what a client's index-th session does: which slot of the
// cycle it loads (the seed decides the order within a pass, every pass holds
// every slot once), whether under a fresh name (cold create) or the circuit's
// own (warm), and whether it analyzes through the job plane. Cold and async
// depend on the slot and the pass, not on the seed, so each pass does the same
// work whatever the seed, and over four passes every slot is played in all
// four combinations.
//
// Pass 0 is the warm-up and walks the slots in order, seed or no seed: what
// the daemon retains grows along the pass, so the high-water mark depends on
// where in the pass the largest circuit falls.
func sessionPlan(slots int, seed int64, client, index int) (slot int, cold, async bool) {
	pass, pos := index/slots, index%slots
	slot = pos
	if pass > 0 {
		slot = rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(pass))).Perm(slots)[pos]
	}
	return slot, (slot/2+pass/2)%2 == 1, (slot+pass)%2 == 1
}

func runServiceMix(e *env) error {
	s := &service{e: e}
	defer s.stop()
	if _, err := e.setup(s.start); err != nil {
		return err
	}
	s.latMs, s.first = map[string][]float64{}, map[string]string{}
	clients := serviceClients()
	next := make([]int, clients)
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(e.seed*1000003 + int64(c)))
	}
	transistors := 0.0
	for _, c := range s.corpus {
		transistors += float64(c.transistors)
	}

	if e.traced {
		return serviceTraced(e, s, next, rngs)
	}

	s.warmUp(next, rngs)
	e.memoryMetrics(transistors)
	runtime.KeepAlive(s)
	s.latMs, s.overhead, s.ops = map[string][]float64{}, nil, 0

	start := time.Now()
	wall := s.play(nil, next, rngs, func(int) bool { return time.Since(start).Seconds() < e.seconds })

	pct, tail := tailPercentile(s.latMs["analyze"], 90)
	e.set("op_p50_ms", median(s.latMs["analyze"]))
	e.set("op_tail_ms", tail)
	e.set("work_per_s", float64(s.ops)/wall.Seconds())
	fmt.Printf("%s: %d clients, %d sessions, %d HTTP operations in %.1f s; analyze p50 %.1f ms, tail p%.0f %.1f ms over %d analyzes\n",
		e.workload, clients, len(s.latMs["delete"]), s.ops, wall.Seconds(),
		median(s.latMs["analyze"]), pct, tail, len(s.latMs["analyze"]))
	return nil
}

// serviceTraced plays a fixed script — the warm-up, then the traced sessions — and fills the server.* ledger from
// the traced sessions, the daemon's own counters over them, and the layer
// probes over the corpus's largest chip.
func serviceTraced(e *env, s *service, next []int, rngs []*rand.Rand) error {
	s.warmUp(next, rngs)
	s.latMs, s.overhead, s.ops = map[string][]float64{}, nil, 0
	before := s.sv.MetricsSnapshot()
	s.play(e.tr, next, rngs, func(played int) bool { return played < e.sz.tracedSessions })
	after := s.sv.MetricsSnapshot()

	e.set("trace_overhead_pct", e.tr.overheadPct())
	for _, ep := range endpoints {
		ms := 0.0
		if len(s.latMs[ep]) > 0 {
			ms = median(s.latMs[ep])
		}
		e.set("server."+ep+"_ms", ms)
		e.set("server."+ep+"_count", float64(len(s.latMs[ep])))
	}
	e.set("server.http_overhead_ms", median(s.overhead))
	hits := float64(after.Snapshots.Hits - before.Snapshots.Hits)
	misses := float64(after.Snapshots.Misses - before.Snapshots.Misses)
	e.set("server.warm_create_share", ratio(hits, hits+misses))
	submitted := float64(after.Jobs.Submitted - before.Jobs.Submitted)
	rejected := float64(after.Jobs.Rejected - before.Jobs.Rejected)
	e.set("server.rejected_share", ratio(rejected, submitted+rejected))
	e.set("server.jobs_done", float64(after.Jobs.Done-before.Jobs.Done))
	e.set("server.arena_detaches", float64(after.NetArena.Detaches-before.NetArena.Detaches))

	spec := e.sz.probeSpec
	path, raw, _, err := e.writeSim(spec)
	if err != nil {
		return err
	}
	if err := (&probe{e: e, spec: spec, path: path, raw: raw}).run(); err != nil {
		return err
	}
	zeroEditMetrics(e)
	return nil
}

// zeroServerMetrics reports the daemon's layers as silent on a workload that
// never starts one.
func zeroServerMetrics(e *env) {
	for _, ep := range endpoints {
		e.set("server."+ep+"_ms", 0)
		e.set("server."+ep+"_count", 0)
	}
	for _, name := range []string{"http_overhead_ms", "warm_create_share", "rejected_share", "jobs_done", "arena_detaches"} {
		e.set("server."+name, 0)
	}
}
