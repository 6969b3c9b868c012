// Command loadgen drives a crystald daemon with scripted multi-session
// load: the same open-session / analyze / edits / simulate / critical
// transcript grammar the server_e2e harness exercises, scaled out to
// hundreds of concurrent sessions with a configurable concurrency ramp,
// a content-hash reuse ratio (dedup pressure), async-job traffic against
// the bounded worker pool, and built-in fault injection.
//
// Usage:
//
//	loadgen -daemon ./crystald [-snapshot-dir DIR] [-max-sessions 16]
//	        [-ramp 4,8,16,32] [-step-duration 5s] [-sessions 32]
//	        [-reuse 0.3] [-async-frac 0.5] [-validate]
//	        [-restart-after 3s] [-chaos-job-delay 5ms]
//	        [-chaos-job-fail-every 7] [-out report.json]
//	loadgen -addr http://127.0.0.1:8653 [...]        # external daemon
//
// With -daemon, loadgen spawns and manages the crystald process itself,
// which enables the harshest fault injection: -restart-after SIGTERMs the
// daemon mid-run, waits for the graceful drain, restarts it over the same
// -snapshot-dir, and the workers ride through the window — every session
// recreates over the warm .simx cache and the run keeps going. The
// -chaos-* flags are forwarded to the daemon's injected-slow/failed-job
// knobs; chaos-failed jobs are expected and counted, never validation
// failures.
//
// With -validate, a slice of analyze traffic runs as sync/async pairs and
// hard-asserts the async job result is byte-identical to the synchronous
// response after zeroing wall-clock fields (duration_ns, cached). Any
// mismatch is a hard failure: loadgen exits nonzero and prints the diff.
//
// The report (stdout or -out) is a JSON document with one entry per ramp
// step — offered concurrency, throughput, analyze p50/p99, rejection rate
// — plus the detected saturation knee; scripts/bench.sh turns it into
// BENCH_8.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// sessionConfig mirrors the POST /v1/sessions body (the wire API, not the
// server's internal type — loadgen is a pure HTTP client).
type sessionConfig struct {
	Name   string  `json:"name,omitempty"`
	Sim    string  `json:"sim"`
	Tech   string  `json:"tech,omitempty"`
	Model  string  `json:"model,omitempty"`
	Tables string  `json:"tables,omitempty"`
	Slope  float64 `json:"slope,omitempty"`
	Top    int     `json:"top,omitempty"`
}

// circuit is one generated netlist plus the node names the transcript
// needs (simulate columns, watch lists, edit targets).
type circuit struct {
	spec    string
	sim     string
	inputs  []string
	outputs []string
}

func buildCircuit(spec string) (*circuit, error) {
	nw, err := gen.Build(spec, tech.NMOS4())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := netlist.WriteSim(&buf, nw); err != nil {
		return nil, err
	}
	c := &circuit{spec: spec, sim: buf.String()}
	for _, n := range nw.Inputs() {
		c.inputs = append(c.inputs, n.Name)
	}
	for _, n := range nw.Outputs() {
		c.outputs = append(c.outputs, n.Name)
	}
	if len(c.inputs) == 0 || len(c.outputs) == 0 {
		return nil, fmt.Errorf("%s: generated circuit has no inputs or outputs", spec)
	}
	return c, nil
}

// slot is one scripted session: a config plus the live session id. Slots
// with aliased=true share a config with a base slot (the content-hash
// reuse ratio); validation pairs run only on exclusive slots, where no
// other worker can edit the server-side session mid-pair.
type slot struct {
	circ    *circuit
	cfg     sessionConfig
	aliased bool // shares a config (and therefore a pristine session)

	mu     sync.Mutex
	id     string
	ready  bool // analyzed at least once (critical queries are valid)
	edited bool
}

// counters aggregates one step's outcomes. Everything is atomic: the
// worker pool hammers these from every goroutine.
type counters struct {
	ops, errors, rejected  atomic.Int64
	chaosFailed, restarted atomic.Int64 // ops absorbed by injected faults / restart windows
	pairs, pairFails       atomic.Int64
	createParse            atomic.Int64
	createWarm             atomic.Int64 // snapshot or mmap source
	createDedup            atomic.Int64

	mu  sync.Mutex
	lat []int64 // analyze wall latencies, ns
}

func (ct *counters) observe(d time.Duration) {
	ct.mu.Lock()
	ct.lat = append(ct.lat, d.Nanoseconds())
	ct.mu.Unlock()
}

func (ct *counters) percentiles() (p50, p99 int64) {
	ct.mu.Lock()
	buf := append([]int64(nil), ct.lat...)
	ct.mu.Unlock()
	if len(buf) == 0 {
		return 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[len(buf)/2], buf[(len(buf)*99)/100]
}

// stepResult is one ramp step of the report.
type stepResult struct {
	Concurrency   int     `json:"concurrency"`
	DurationS     float64 `json:"duration_s"`
	Ops           int64   `json:"ops"`
	Errors        int64   `json:"errors"`
	Rejected      int64   `json:"rejected"`
	RejectRate    float64 `json:"reject_rate"`
	ThroughputOps float64 `json:"throughput_ops"`
	AnalyzeP50Ns  int64   `json:"analyze_p50_ns"`
	AnalyzeP99Ns  int64   `json:"analyze_p99_ns"`
}

type report struct {
	Bench     string       `json:"bench"`
	Seed      int64        `json:"seed"`
	Circuits  []string     `json:"circuits"`
	Sessions  int          `json:"sessions"`
	ReuseFrac float64      `json:"reuse_frac"`
	AsyncFrac float64      `json:"async_frac"`
	Steps     []stepResult `json:"steps"`
	Knee      *stepResult  `json:"knee,omitempty"`

	Validation struct {
		Pairs    int64  `json:"pairs"`
		Failures int64  `json:"failures"`
		Example  string `json:"example,omitempty"`
	} `json:"validation"`

	Restarts      int     `json:"restarts"`
	RestartOps    int64   `json:"restart_absorbed_ops"` // ops retried/skipped in restart windows
	ChaosFailures int64   `json:"chaos_failures"`
	CreatesParse  int64   `json:"creates_parse"`
	CreatesWarm   int64   `json:"creates_warm"` // snapshot or mmap warm starts
	CreatesDedup  int64   `json:"creates_dedup"`
	ElapsedS      float64 `json:"elapsed_s"`
}

// ---------------------------------------------------------------------------
// HTTP client with restart-window retries.

type client struct {
	base string
	hc   *http.Client
	// restartEpoch increments on every daemon restart; ops that fail while
	// the epoch moves are absorbed, not counted as errors.
	restartEpoch atomic.Int64
}

// do issues one request. Connection errors and 503 (drain window) retry
// with backoff for up to ~20s so workers ride through a daemon restart.
func (c *client) do(method, path string, body any) (int, []byte, error) {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		payload = b
	}
	deadline := time.Now().Add(20 * time.Second)
	backoff := 10 * time.Millisecond
	for {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode != http.StatusServiceUnavailable {
				if ra := resp.Header.Get("Retry-After"); ra != "" && resp.StatusCode == http.StatusTooManyRequests {
					// Surface the admission-control hint to the caller via
					// a pseudo-header decode; the body already carries it.
					_ = ra
				}
				return resp.StatusCode, raw, nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return 0, nil, err
			}
			return http.StatusServiceUnavailable, nil, fmt.Errorf("still draining after 20s")
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// jobPoll is the GET /v1/jobs/{id} body subset loadgen consumes.
type jobPoll struct {
	State  string          `json:"state"`
	Status int             `json:"status"`
	Result json.RawMessage `json:"result"`
}

// waitJob polls one async job to completion.
func (c *client) waitJob(id string, timeout time.Duration) (jobPoll, error) {
	deadline := time.Now().Add(timeout)
	pause := 2 * time.Millisecond
	for {
		st, raw, err := c.do("GET", "/v1/jobs/"+id, nil)
		if err != nil {
			return jobPoll{}, err
		}
		if st == http.StatusNotFound {
			// Restart wiped the in-memory job plane.
			return jobPoll{}, fmt.Errorf("job %s lost", id)
		}
		var j jobPoll
		if err := json.Unmarshal(raw, &j); err != nil {
			return jobPoll{}, fmt.Errorf("job %s: bad poll body %q", id, raw)
		}
		if j.State == "done" || j.State == "failed" {
			return j, nil
		}
		if time.Now().After(deadline) {
			return jobPoll{}, fmt.Errorf("job %s still %s after %s", id, j.State, timeout)
		}
		time.Sleep(pause)
		if pause < 50*time.Millisecond {
			pause *= 2
		}
	}
}

// ---------------------------------------------------------------------------
// Managed daemon (spawn, SIGTERM, restart).

type daemon struct {
	bin  string
	args []string
	addr string
	cmd  *exec.Cmd
}

func (d *daemon) start() error {
	d.cmd = exec.Command(d.bin, d.args...)
	d.cmd.Stdout = os.Stderr
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		return err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("daemon did not become healthy at %s", d.addr)
}

func (d *daemon) stop() error {
	if d.cmd == nil || d.cmd.Process == nil {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon ignored SIGTERM; killed")
	}
}

// ---------------------------------------------------------------------------
// Response normalization for the validation mode: zero wall-clock fields,
// re-marshal with sorted keys. Equal strings == byte-identical results.

func normalizeBody(raw []byte) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("bad JSON %q: %v", raw, err)
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
	return string(out), err
}

// ---------------------------------------------------------------------------

type harness struct {
	c        *client
	slots    []*slot
	ct       *counters // current step's counters (swapped between steps)
	ctMu     sync.RWMutex
	validate bool
	async    float64
	force    float64
	workers  int

	valMu      sync.Mutex
	valExample string
	totPairs   atomic.Int64
	totFails   atomic.Int64
	totChaos   atomic.Int64
	totRestart atomic.Int64
	parse      atomic.Int64
	warm       atomic.Int64
	dedup      atomic.Int64
}

func (h *harness) counters() *counters {
	h.ctMu.RLock()
	defer h.ctMu.RUnlock()
	return h.ct
}

// ensure creates the slot's session if it has no live id, returning the
// id. Called with the slot lock held.
func (h *harness) ensure(s *slot) (string, error) {
	if s.id != "" {
		return s.id, nil
	}
	st, raw, err := h.c.do("POST", "/v1/sessions", s.cfg)
	if err != nil {
		return "", err
	}
	if st != http.StatusCreated && st != http.StatusOK {
		return "", fmt.Errorf("create %s: status %d: %s", s.cfg.Name, st, raw)
	}
	var resp struct {
		Session string `json:"session"`
		Cached  bool   `json:"cached"`
		Source  string `json:"source"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return "", err
	}
	switch {
	case resp.Cached:
		h.dedup.Add(1)
		h.counters().createDedup.Add(1)
	case resp.Source == "snapshot" || resp.Source == "mmap":
		h.warm.Add(1)
		h.counters().createWarm.Add(1)
	default:
		h.parse.Add(1)
		h.counters().createParse.Add(1)
	}
	s.id, s.ready, s.edited = resp.Session, false, false
	return s.id, nil
}

// absorb classifies an op failure: restart windows and injected chaos are
// expected and absorbed; anything else is a hard error.
func (h *harness) absorb(s *slot, epoch int64, err error) {
	ct := h.counters()
	if h.c.restartEpoch.Load() != epoch {
		ct.restarted.Add(1)
		h.totRestart.Add(1)
		s.id = "" // session is gone; recreate over the warm cache
		return
	}
	ct.errors.Add(1)
	fmt.Fprintf(os.Stderr, "loadgen: error: %v\n", err)
}

// analyzeOp runs one analyze — sync, async, or a validation pair.
func (h *harness) analyzeOp(s *slot, rng *rand.Rand) {
	ct := h.counters()
	epoch := h.c.restartEpoch.Load()
	id, err := h.ensure(s)
	if err != nil {
		h.absorb(s, epoch, err)
		return
	}
	force := rng.Float64() < h.force
	doPair := h.validate && !s.aliased && rng.Float64() < 0.5

	if doPair {
		h.validatePair(s, id, epoch)
		return
	}

	body := map[string]any{"force": force}
	if rng.Float64() < h.async {
		body["async"] = true
		start := time.Now()
		st, raw, err := h.c.do("POST", "/v1/sessions/"+id+"/analyze", body)
		switch {
		case err != nil:
			h.absorb(s, epoch, err)
			return
		case st == http.StatusTooManyRequests:
			ct.rejected.Add(1)
			time.Sleep(20 * time.Millisecond) // admission backoff
			return
		case st == http.StatusNotFound:
			s.id = ""
			return
		case st != http.StatusAccepted:
			h.absorb(s, epoch, fmt.Errorf("async analyze %s: status %d: %s", id, st, raw))
			return
		}
		var acc struct {
			Job string `json:"job"`
		}
		if err := json.Unmarshal(raw, &acc); err != nil {
			h.absorb(s, epoch, err)
			return
		}
		j, err := h.c.waitJob(acc.Job, 60*time.Second)
		if err != nil {
			h.absorb(s, epoch, err)
			return
		}
		if j.State == "failed" {
			if strings.Contains(string(j.Result), "chaos") {
				ct.chaosFailed.Add(1)
				h.totChaos.Add(1)
				return
			}
			h.absorb(s, epoch, fmt.Errorf("job %s failed: %s", acc.Job, j.Result))
			return
		}
		ct.observe(time.Since(start))
		s.ready = true
		ct.ops.Add(1)
		return
	}

	start := time.Now()
	st, raw, err := h.c.do("POST", "/v1/sessions/"+id+"/analyze", body)
	switch {
	case err != nil:
		h.absorb(s, epoch, err)
	case st == http.StatusNotFound:
		s.id = ""
	case st != http.StatusOK:
		h.absorb(s, epoch, fmt.Errorf("analyze %s: status %d: %s", id, st, raw))
	default:
		ct.observe(time.Since(start))
		s.ready = true
		ct.ops.Add(1)
	}
}

// validatePair hard-asserts the async analyze result is byte-identical
// to the synchronous response. Runs only on exclusive slots (no other
// worker can touch the session), with the slot lock held.
func (h *harness) validatePair(s *slot, id string, epoch int64) {
	ct := h.counters()
	body := map[string]any{"force": true}
	st, syncRaw, err := h.c.do("POST", "/v1/sessions/"+id+"/analyze", body)
	if err != nil || st != http.StatusOK {
		if st == http.StatusNotFound {
			s.id = ""
			return
		}
		h.absorb(s, epoch, fmt.Errorf("pair sync arm: status %d err %v", st, err))
		return
	}
	body["async"] = true
	st, raw, err := h.c.do("POST", "/v1/sessions/"+id+"/analyze", body)
	if err != nil || st != http.StatusAccepted {
		if st == http.StatusTooManyRequests {
			ct.rejected.Add(1)
			return
		}
		h.absorb(s, epoch, fmt.Errorf("pair async arm: status %d err %v", st, err))
		return
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(raw, &acc); err != nil {
		h.absorb(s, epoch, err)
		return
	}
	j, err := h.c.waitJob(acc.Job, 60*time.Second)
	if err != nil {
		h.absorb(s, epoch, err)
		return
	}
	if j.State == "failed" {
		if strings.Contains(string(j.Result), "chaos") {
			ct.chaosFailed.Add(1)
			h.totChaos.Add(1)
			return
		}
		h.absorb(s, epoch, fmt.Errorf("pair job failed: %s", j.Result))
		return
	}
	if h.c.restartEpoch.Load() != epoch {
		// The daemon bounced between the two arms; the pair is not
		// comparable (different processes served it). Skip, don't assert.
		ct.restarted.Add(1)
		h.totRestart.Add(1)
		return
	}
	sn, err1 := normalizeBody(syncRaw)
	an, err2 := normalizeBody(j.Result)
	h.totPairs.Add(1)
	ct.pairs.Add(1)
	if err1 != nil || err2 != nil || sn != an {
		h.totFails.Add(1)
		ct.pairFails.Add(1)
		h.valMu.Lock()
		if h.valExample == "" {
			h.valExample = fmt.Sprintf("session %s (%s):\n--- sync\n%s\n--- async\n%s",
				id, s.cfg.Name, sn, an)
		}
		h.valMu.Unlock()
		return
	}
	s.ready = true
	ct.ops.Add(2)
	ct.observe(0) // pair latencies are validation overhead, not samples
}

func (h *harness) editOp(s *slot) {
	ct := h.counters()
	epoch := h.c.restartEpoch.Load()
	id, err := h.ensure(s)
	if err != nil {
		h.absorb(s, epoch, err)
		return
	}
	if !s.ready {
		return // edits need a prior analyze (409 otherwise)
	}
	out := s.circ.outputs[0]
	script := fmt.Sprintf("cap %s 1e-15\nrun\ncap %s -1e-15\nrun\n", out, out)
	st, raw, err := h.c.do("POST", "/v1/sessions/"+id+"/edits", map[string]any{"script": script})
	switch {
	case err != nil:
		h.absorb(s, epoch, err)
	case st == http.StatusNotFound:
		s.id = ""
	case st == http.StatusConflict:
		// An alias slot's delete+recreate swapped in a pristine session
		// under the same id; it needs an analyze before edits.
		s.ready = false
	case st != http.StatusOK:
		h.absorb(s, epoch, fmt.Errorf("edits %s: status %d: %s", id, st, raw))
	default:
		s.edited = true
		ct.ops.Add(1)
	}
}

func (h *harness) simulateOp(s *slot, rng *rand.Rand) {
	ct := h.counters()
	epoch := h.c.restartEpoch.Load()
	id, err := h.ensure(s)
	if err != nil {
		h.absorb(s, epoch, err)
		return
	}
	cols := s.circ.inputs
	if len(cols) > 8 {
		cols = cols[:8]
	}
	watch := s.circ.outputs
	if len(watch) > 4 {
		watch = watch[:4]
	}
	vecs := make([]string, 2)
	for i := range vecs {
		var b strings.Builder
		for range cols {
			b.WriteByte('0' + byte(rng.Intn(2)))
		}
		vecs[i] = b.String()
	}
	st, raw, err := h.c.do("POST", "/v1/sessions/"+id+"/simulate", map[string]any{
		"inputs": cols, "watch": watch, "vectors": vecs,
	})
	switch {
	case err != nil:
		h.absorb(s, epoch, err)
	case st == http.StatusNotFound:
		s.id = ""
	case st != http.StatusOK:
		h.absorb(s, epoch, fmt.Errorf("simulate %s: status %d: %s", id, st, raw))
	default:
		ct.ops.Add(1)
	}
}

func (h *harness) criticalOp(s *slot) {
	ct := h.counters()
	epoch := h.c.restartEpoch.Load()
	id, err := h.ensure(s)
	if err != nil {
		h.absorb(s, epoch, err)
		return
	}
	if !s.ready {
		return
	}
	st, raw, err := h.c.do("GET", "/v1/sessions/"+id+"/critical?n=3", nil)
	switch {
	case err != nil:
		h.absorb(s, epoch, err)
	case st == http.StatusNotFound:
		s.id = ""
	case st == http.StatusConflict: // evict+recreate raced the analyze
		s.ready = false
	case st != http.StatusOK:
		h.absorb(s, epoch, fmt.Errorf("critical %s: status %d: %s", id, st, raw))
	default:
		ct.ops.Add(1)
	}
}

func (h *harness) deleteOp(s *slot) {
	ct := h.counters()
	if s.id == "" {
		return
	}
	epoch := h.c.restartEpoch.Load()
	st, _, err := h.c.do("DELETE", "/v1/sessions/"+s.id, nil)
	if err != nil {
		h.absorb(s, epoch, err)
		return
	}
	if st == http.StatusOK || st == http.StatusNotFound {
		s.id = ""
		ct.ops.Add(1)
	}
}

// step runs one offered-concurrency level for the given duration and
// folds the counters into a stepResult.
func (h *harness) step(concurrency int, d time.Duration, seed int64) stepResult {
	ct := &counters{}
	h.ctMu.Lock()
	h.ct = ct
	h.ctMu.Unlock()

	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for time.Now().Before(stop) {
				s := h.slots[rng.Intn(len(h.slots))]
				s.mu.Lock()
				switch p := rng.Float64(); {
				case p < 0.55:
					h.analyzeOp(s, rng)
				case p < 0.70:
					h.editOp(s)
				case p < 0.85:
					h.simulateOp(s, rng)
				case p < 0.95:
					h.criticalOp(s)
				default:
					h.deleteOp(s)
				}
				s.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	ops := ct.ops.Load()
	rej := ct.rejected.Load()
	p50, p99 := ct.percentiles()
	res := stepResult{
		Concurrency:   concurrency,
		DurationS:     d.Seconds(),
		Ops:           ops,
		Errors:        ct.errors.Load(),
		Rejected:      rej,
		ThroughputOps: float64(ops) / d.Seconds(),
		AnalyzeP50Ns:  p50,
		AnalyzeP99Ns:  p99,
	}
	if ops+rej > 0 {
		res.RejectRate = float64(rej) / float64(ops+rej)
	}
	return res
}

// knee finds the saturation point: the first step whose throughput gain
// over the previous step falls under 10%, or whose rejection rate tops
// 1%. Falls back to the last step when the curve never flattens.
func knee(steps []stepResult) *stepResult {
	if len(steps) == 0 {
		return nil
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].RejectRate > 0.01 || steps[i].ThroughputOps < steps[i-1].ThroughputOps*1.10 {
			k := steps[i]
			return &k
		}
	}
	k := steps[len(steps)-1]
	return &k
}

func main() {
	addr := flag.String("addr", "", "target an already-running daemon at this base URL (e.g. http://127.0.0.1:8653)")
	bin := flag.String("daemon", "", "spawn and manage this crystald binary (enables -restart-after)")
	port := flag.Int("port", 8943, "listen port for the spawned daemon")
	snapshotDir := flag.String("snapshot-dir", "", "snapshot dir for the spawned daemon (default: a temp dir; required for warm restarts)")
	maxSessions := flag.Int("max-sessions", 16, "spawned daemon session bound (eviction pressure)")
	jobWorkers := flag.Int("job-workers", 2, "spawned daemon async worker pool")
	jobQueue := flag.Int("job-queue", 32, "spawned daemon async queue bound")
	chaosDelay := flag.Duration("chaos-job-delay", 0, "forward to the daemon: stretch every async job")
	chaosFail := flag.Int("chaos-job-fail-every", 0, "forward to the daemon: fail every Nth async job")
	circuits := flag.String("circuits", "invchain:32,ripple:4,passchain:16,decoder:3", "comma-separated generator specs for the session corpus")
	sessions := flag.Int("sessions", 24, "scripted session slots")
	reuse := flag.Float64("reuse", 0.3, "fraction of slots sharing a config (content-hash dedup pressure)")
	asyncFrac := flag.Float64("async-frac", 0.5, "fraction of analyzes submitted as async jobs")
	forceFrac := flag.Float64("force-frac", 0.5, "fraction of analyzes forcing a fresh drain")
	concurrency := flag.Int("concurrency", 8, "offered concurrency (fixed mode)")
	ramp := flag.String("ramp", "", "comma-separated concurrency steps (e.g. 4,8,16,32); overrides -concurrency")
	duration := flag.Duration("duration", 5*time.Second, "run length (fixed mode)")
	stepDuration := flag.Duration("step-duration", 5*time.Second, "per-step run length (ramp mode)")
	validate := flag.Bool("validate", false, "hard-assert async analyze results byte-identical to sync")
	restartAfter := flag.Duration("restart-after", 0, "SIGTERM + restart the spawned daemon after this much elapsed run time (0 = off)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	out := flag.String("out", "-", "report destination (- = stdout)")
	flag.Parse()

	if (*addr == "") == (*bin == "") {
		fmt.Fprintln(os.Stderr, "loadgen: exactly one of -addr or -daemon is required")
		os.Exit(2)
	}
	if *restartAfter > 0 && *bin == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -restart-after needs -daemon (loadgen must own the process)")
		os.Exit(2)
	}

	// Build the circuit corpus locally: loadgen knows every node name
	// without asking the daemon.
	var corpus []*circuit
	var specs []string
	for _, spec := range strings.Split(*circuits, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		c, err := buildCircuit(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		corpus = append(corpus, c)
		specs = append(specs, spec)
	}
	if len(corpus) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: empty circuit corpus")
		os.Exit(2)
	}

	// Session slots: the exclusive prefix gets unique configs; the aliased
	// tail re-POSTs an exclusive slot's config and rides its pristine
	// session through content-hash dedup.
	nAlias := int(float64(*sessions) * *reuse)
	nExcl := *sessions - nAlias
	if nExcl < 1 {
		nExcl, nAlias = 1, *sessions-1
	}
	slots := make([]*slot, 0, *sessions)
	for i := 0; i < nExcl; i++ {
		c := corpus[i%len(corpus)]
		slots = append(slots, &slot{circ: c, cfg: sessionConfig{
			Name: fmt.Sprintf("lg%d-s%d", *seed, i), Sim: c.sim, Top: 3,
		}})
	}
	for i := 0; i < nAlias; i++ {
		base := slots[i%nExcl]
		slots = append(slots, &slot{circ: base.circ, cfg: base.cfg, aliased: true})
	}
	// Aliased slots share a server session with their base: the base is
	// no longer exclusive either.
	for i := 0; i < nAlias; i++ {
		slots[i%nExcl].aliased = true
	}

	// Spawn the daemon if we own it.
	var d *daemon
	base := *addr
	if *bin != "" {
		dir := *snapshotDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "loadgen-snap-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				os.Exit(2)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		base = fmt.Sprintf("http://127.0.0.1:%d", *port)
		d = &daemon{bin: *bin, addr: base, args: []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", *port),
			"-max-sessions", strconv.Itoa(*maxSessions),
			"-snapshot-dir", dir,
			"-job-workers", strconv.Itoa(*jobWorkers),
			"-job-queue", strconv.Itoa(*jobQueue),
			"-chaos-job-delay", chaosDelay.String(),
			"-chaos-job-fail-every", strconv.Itoa(*chaosFail),
		}}
		if err := d.start(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	// os.Exit skips defers: every exit below goes through fail() so a
	// managed daemon never outlives loadgen (it would hold the inherited
	// stderr pipe open and hang the caller).
	fail := func(code int) {
		if d != nil {
			d.stop()
		}
		os.Exit(code)
	}

	h := &harness{
		c:        &client{base: base, hc: &http.Client{Timeout: 90 * time.Second}},
		slots:    slots,
		ct:       &counters{},
		validate: *validate,
		async:    *asyncFrac,
		force:    *forceFrac,
	}

	// Fault injection: SIGTERM the daemon mid-run, wait out the graceful
	// drain, restart it over the same snapshot dir. Workers ride through
	// on the client's retry loop and recreate sessions over the warm
	// cache.
	restarts := 0
	var restartWG sync.WaitGroup
	if *restartAfter > 0 {
		restartWG.Add(1)
		go func() {
			defer restartWG.Done()
			time.Sleep(*restartAfter)
			fmt.Fprintln(os.Stderr, "loadgen: injecting daemon restart")
			if err := d.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: restart stop:", err)
			}
			h.c.restartEpoch.Add(1)
			if err := d.start(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: restart:", err)
				fail(1)
			}
			restarts++
		}()
	}

	steps := []int{*concurrency}
	stepDur := *duration
	if *ramp != "" {
		steps = steps[:0]
		for _, s := range strings.Split(*ramp, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "loadgen: bad ramp step %q\n", s)
				fail(2)
			}
			steps = append(steps, n)
		}
		stepDur = *stepDuration
	}

	start := time.Now()
	rep := report{
		Bench: "loadgen", Seed: *seed, Circuits: specs,
		Sessions: *sessions, ReuseFrac: *reuse, AsyncFrac: *asyncFrac,
	}
	for i, c := range steps {
		res := h.step(c, stepDur, *seed+int64(i)*104729)
		rep.Steps = append(rep.Steps, res)
		fmt.Fprintf(os.Stderr,
			"loadgen: step c=%-4d ops=%-7d %.0f ops/s p50=%.2fms p99=%.2fms rejected=%d errors=%d\n",
			c, res.Ops, res.ThroughputOps,
			float64(res.AnalyzeP50Ns)/1e6, float64(res.AnalyzeP99Ns)/1e6,
			res.Rejected, res.Errors)
	}
	restartWG.Wait()

	rep.Knee = knee(rep.Steps)
	rep.Validation.Pairs = h.totPairs.Load()
	rep.Validation.Failures = h.totFails.Load()
	rep.Validation.Example = h.valExample
	rep.Restarts = restarts
	rep.RestartOps = h.totRestart.Load()
	rep.ChaosFailures = h.totChaos.Load()
	rep.CreatesParse = h.parse.Load()
	rep.CreatesWarm = h.warm.Load()
	rep.CreatesDedup = h.dedup.Load()
	rep.ElapsedS = time.Since(start).Seconds()

	enc, _ := json.MarshalIndent(rep, "", "  ")
	if *out == "-" {
		fmt.Println(string(enc))
	} else if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		fail(1)
	}

	var hardErrors int64
	for _, s := range rep.Steps {
		hardErrors += s.Errors
	}
	if rep.Validation.Failures > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d validation mismatches\n%s\n",
			rep.Validation.Failures, rep.Validation.Example)
		fail(1)
	}
	if hardErrors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d hard errors\n", hardErrors)
		fail(1)
	}
	if d != nil {
		d.stop()
	}
}
