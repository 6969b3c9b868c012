// Process-level checks of the daemon. The test binary re-executes itself
// as crystald (TestMain dispatches on argv[0]), so the real main — flags,
// listener, signal handling, the drain — runs in a child process the
// tests can SIGTERM and SIGKILL without a separate build.
//
// Analyze bodies are compared, normalized, against an in-process
// internal/server with no snapshot directory: the answer a circuit must
// get whatever the daemon went through before serving it.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/tech"
)

// daemonArg0 is the argv[0] under which the test binary runs main.
const daemonArg0 = "crystald"

func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == daemonArg0 {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one crystald child process.
type daemon struct {
	cmd     *exec.Cmd
	log     *os.File      // the process's stderr
	base    string        // http://host:port, from the "listening on" log line
	done    chan struct{} // closed when the process has exited
	exitErr error         // cmd.Wait's result, valid after done
}

// startDaemon starts crystald on a free loopback port with the given
// extra flags and waits until it reports its address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	log, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		cmd:  &exec.Cmd{Path: os.Args[0], Args: append([]string{daemonArg0, "-addr", "127.0.0.1:0"}, args...), Stderr: log},
		log:  log,
		done: make(chan struct{}),
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		log.Close()
	})
	for d.base == "" {
		select {
		case <-d.done:
			t.Fatalf("crystald exited before listening: %v\n%s", d.exitErr, d.logText())
		case <-time.After(time.Millisecond):
		}
		_, rest, _ := strings.Cut(d.logText(), "crystald: listening on ")
		if addr, _, ok := strings.Cut(rest, " ("); ok { // the whole address is in
			d.base = "http://" + addr
		}
	}
	return d
}

func (d *daemon) logText() string {
	b, _ := os.ReadFile(d.log.Name())
	return string(b)
}

// signal sends sig (an exited process ignores it) and returns how long
// the process took to exit.
func (d *daemon) signal(sig os.Signal) time.Duration {
	start := time.Now()
	d.cmd.Process.Signal(sig)
	<-d.done
	return time.Since(start)
}

// cleanExit reports whether the process exited 0 after a full drain.
func (d *daemon) cleanExit() bool {
	return d.exitErr == nil && strings.Contains(d.logText(), "crystald: drained, bye")
}

var client = &http.Client{Timeout: time.Minute}

// call issues one request with a JSON body (null for nil). The status is 0
// exactly when no response arrived (refused, reset, closed before a
// status line).
func call(base, method, path string, body any) (int, []byte, error) {
	b, _ := json.Marshal(body)
	req, err := http.NewRequest(method, base+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// normalize drops an analyze body's wall-clock fields and re-marshals it
// with sorted keys, so equal strings mean equal answers. A body that is
// not JSON normalizes to "null", which matches no answer.
func normalize(raw []byte) string {
	var v map[string]any
	json.Unmarshal(raw, &v)
	delete(v, "duration_ns")
	delete(v, "cached")
	out, _ := json.Marshal(v)
	return string(out)
}

// field extracts one string field of a JSON body ("" if there is none).
func field(raw []byte, name string) string {
	var v map[string]any
	json.Unmarshal(raw, &v)
	s, _ := v[name].(string)
	return s
}

// circuits returns config(i, name): generated circuit i (mod the spec
// count) under name. Every name is its own network identity, so a create
// under a new name parses and writes its own snapshot.
func circuits(t *testing.T, specs ...string) func(i int, name string) server.SessionConfig {
	var sims []string
	for _, spec := range specs {
		nw, err := gen.Build(spec, tech.NMOS4())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		netlist.WriteSim(&b, nw) // fails only when its writer does
		sims = append(sims, b.String())
	}
	return func(i int, name string) server.SessionConfig {
		return server.SessionConfig{Name: name, Sim: sims[i%len(sims)], Top: 3}
	}
}

// answer is what a fresh session reports: its id and its normalized first
// analyze body (a forced re-analysis answers the same).
type answer struct{ session, analyze string }

// open creates a session for cfg at base and runs its first analyze. It
// returns the answer and the create response's source.
func open(t *testing.T, base string, cfg server.SessionConfig) (answer, string) {
	t.Helper()
	st, raw, err := call(base, "POST", "/v1/sessions", cfg)
	if err != nil || st != http.StatusCreated && st != http.StatusOK {
		t.Fatalf("create %s: status %d, err %v: %s", cfg.Name, st, err, raw)
	}
	id, src := field(raw, "session"), field(raw, "source")
	st, raw, err = call(base, "POST", "/v1/sessions/"+id+"/analyze", nil)
	if err != nil || st != http.StatusOK {
		t.Fatalf("analyze %s: status %d, err %v: %s", cfg.Name, st, err, raw)
	}
	return answer{id, normalize(raw)}, src
}

// reference returns the in-process answer for a config.
func reference(t *testing.T) func(server.SessionConfig) answer {
	srv := httptest.NewServer(server.New(server.Options{MaxSessions: 1024}))
	t.Cleanup(srv.Close)
	return func(cfg server.SessionConfig) answer {
		a, _ := open(t, srv.URL, cfg)
		return a
	}
}

// reopenAll restarts crystald over dir and requires every config to open
// and analyze to its reference answer — the first warm of them from the
// snapshot cache — then a clean SIGTERM exit.
func reopenAll(t *testing.T, dir string, ref func(server.SessionConfig) answer, cfgs []server.SessionConfig, warm int) {
	t.Helper()
	d := startDaemon(t, "-snapshot-dir", dir, "-max-sessions", fmt.Sprint(len(cfgs)))
	for i, cfg := range cfgs {
		got, src := open(t, d.base, cfg)
		if want := ref(cfg); got != want {
			t.Fatalf("%s after restart (source %s):\n--- got\n%+v\n--- want\n%+v", cfg.Name, src, got, want)
		}
		if i < warm && src == netlist.SourceParse {
			t.Errorf("%s reopened by parsing, want a warm start from the snapshot cache", cfg.Name)
		}
	}
	if d.signal(syscall.SIGTERM); !d.cleanExit() {
		t.Fatalf("crystald exit: %v\n%s", d.exitErr, d.logText())
	}
}

// load runs request loops against one daemon until it goes away.
type load struct {
	t       *testing.T
	gone    atomic.Bool  // set just before the daemon is signalled
	inDrain atomic.Int64 // answers that arrived after that
	wg      sync.WaitGroup
}

// loop runs op(0), op(1), ... on its own goroutine until one returns false.
func (l *load) loop(op func(i int) bool) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for i := 0; op(i); i++ {
		}
	}()
}

// got checks one response and reports whether the loop goes on. A
// request with no status line is fine once the daemon is being stopped
// (the listener closed) and ends the loop; otherwise the status must be
// want and ok must hold. An answer counts into n.
func (l *load) got(what string, st int, raw []byte, err error, want int, ok bool, n *atomic.Int64) bool {
	switch {
	case st == 0 && l.gone.Load():
		return false
	case err != nil || st != want || !ok:
		l.t.Errorf("%s: status %d, err %v, body %.300s", what, st, err, raw)
		return false
	}
	n.Add(1)
	if l.gone.Load() {
		l.inDrain.Add(1)
	}
	return true
}

// creates loops creating cfg(0) … cfg(n-1), storing in tried how many it
// sent.
func (l *load) creates(d *daemon, n int, cfg func(i int) server.SessionConfig, tried, created *atomic.Int64) {
	l.loop(func(i int) bool {
		if i == n {
			return false
		}
		tried.Store(int64(i + 1))
		st, raw, err := call(d.base, "POST", "/v1/sessions", cfg(i))
		return l.got("create "+cfg(i).Name, st, raw, err, http.StatusCreated, field(raw, "session") != "", created)
	})
}

// stopWhen sends sig once ready holds (SIGKILL and a failure if it never
// does), waits for the loops, and returns how long the exit took.
func (l *load) stopWhen(d *daemon, sig os.Signal, ready func() bool) time.Duration {
	for deadline := time.Now().Add(time.Minute); !ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) || l.t.Failed() {
			l.t.Errorf("load never got going\n%s", d.logText())
			sig = syscall.SIGKILL
			break
		}
	}
	l.gone.Store(true)
	took := d.signal(sig)
	l.wg.Wait()
	return took
}

// TestSIGTERMUnderLoad signals the daemon while sync analyzes, async
// analyzes and creates of never-seen circuits are in flight, then
// restarts it over the same snapshot directory.
//
// After the signal a request, sync or async, is either refused (no
// connection) or admitted and then answered completely and correctly —
// never half-answered; nothing failed before the signal; and the process
// exits 0 within the grace period. After the restart every circuit opens
// — the resident ones from the snapshot cache — and analyzes to the
// reference answer.
func TestSIGTERMUnderLoad(t *testing.T) {
	const grace = 20 * time.Second
	cfg := circuits(t, "arraymul:8", "alu:16", "carrysel:8,4", "manchester:8", "alu:8")
	ref := reference(t)
	dir := t.TempDir()
	d := startDaemon(t, "-snapshot-dir", dir, "-drain-timeout", grace.String(), "-max-sessions", "1024")

	var all []server.SessionConfig
	var want []answer
	for i := 0; i < 4; i++ {
		c := cfg(i, fmt.Sprint("resident-", i))
		w := ref(c)
		if got, _ := open(t, d.base, c); got != w {
			t.Fatalf("%s: %+v, want %+v", c.Name, got, w)
		}
		all, want = append(all, c), append(want, w)
	}
	late := func(i int) server.SessionConfig { return cfg(i, fmt.Sprint("late-", i)) }

	l := &load{t: t}
	var syncOK, jobsOK, polls, created, tried atomic.Int64
	for w := 0; w < 2; w++ {
		l.loop(func(i int) bool { // sync analyzes, forced so each one drains
			k := (i + w) % len(want)
			st, raw, err := call(d.base, "POST", "/v1/sessions/"+want[k].session+"/analyze", map[string]any{"force": true})
			return l.got("sync analyze", st, raw, err, http.StatusOK, normalize(raw) == want[k].analyze, &syncOK)
		})
	}
	l.loop(func(i int) bool { // async analyzes, polled to completion
		k := i % len(want)
		st, raw, err := call(d.base, "POST", "/v1/sessions/"+want[k].session+"/analyze",
			map[string]any{"force": true, "async": true})
		if !l.got("async submit", st, raw, err, http.StatusAccepted, true, &polls) {
			return false
		}
		job := field(raw, "job")
		for {
			// A job admitted but unobservable once the listener closes is
			// covered by the exit check: WaitJobs must finish it.
			var j struct {
				State  string
				Status int
				Result json.RawMessage
			}
			st, raw, err := call(d.base, "GET", "/v1/jobs/"+job, nil)
			if !l.got("poll "+job, st, raw, err, http.StatusOK, json.Unmarshal(raw, &j) == nil, &polls) {
				return false
			}
			if j.State == "done" || j.State == "failed" {
				return l.got(job, j.Status, j.Result, nil, http.StatusOK, normalize(j.Result) == want[k].analyze, &jobsOK)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
	l.creates(d, 100, late, &tried, &created)

	// Signal once every kind of request has been answered a few times.
	took := l.stopWhen(d, syscall.SIGTERM, func() bool {
		return syncOK.Load() >= 4 && jobsOK.Load() >= 2 && created.Load() >= 4
	})
	t.Logf("answered %d sync analyzes, %d jobs, %d creates; %d answers came after the signal; exit after %s",
		syncOK.Load(), jobsOK.Load(), created.Load(), l.inDrain.Load(), took.Round(time.Millisecond))
	if !d.cleanExit() || took >= grace {
		t.Fatalf("crystald exit %v after %s (grace %s)\n%s", d.exitErr, took, grace, d.logText())
	}

	for i := 0; i < int(tried.Load()); i++ {
		all = append(all, late(i))
	}
	reopenAll(t, dir, ref, all, len(want))
}

// TestSIGKILLDuringCreates kills the daemon while creates are writing
// snapshots, then restarts it over the same directory: whatever the kill
// left there, every circuit opens and analyzes to the reference answer.
// Snapshots are written to a temp file and renamed into place, so no
// half-written file is ever served.
func TestSIGKILLDuringCreates(t *testing.T) {
	cfg := circuits(t, "arraymul:8", "alu:16", "carrysel:8,4")
	named := func(w, i int) server.SessionConfig { return cfg(w+i, fmt.Sprintf("kill-%d-%d", w, i)) }
	dir := t.TempDir()
	d := startDaemon(t, "-snapshot-dir", dir, "-max-sessions", "1024")

	l := &load{t: t}
	var tried [3]atomic.Int64
	var created atomic.Int64
	for w := range tried {
		l.creates(d, 40, func(i int) server.SessionConfig { return named(w, i) }, &tried[w], &created)
	}
	l.stopWhen(d, syscall.SIGKILL, func() bool { return created.Load() >= 6 })
	t.Logf("%d creates answered before SIGKILL", created.Load())

	var all []server.SessionConfig
	for w := range tried {
		for i := 0; i < int(tried[w].Load()); i++ {
			all = append(all, named(w, i))
		}
	}
	reopenAll(t, dir, reference(t), all, 0)
}
