// Shared network arena coverage: gauge accounting, copy-on-edit
// detach, the entry's lifetime, and the bit-identity contract —
// analysis over the shared network must match analysis over a privately
// parsed one (a daemon with no snapshot directory: no cache, no
// decoder, no arena), before and after an edit-triggered detach.
package server

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netlist"
)

// withTop returns the dlatch config with a distinct Top directive —
// a different LRU key (no dedup) over the same network identity.
func withTop(t *testing.T, top int) SessionConfig {
	cfg := dlatchConfig(t)
	cfg.Top = top
	return cfg
}

// lastBarrierReport extracts the final refreshed report of an edit
// script.
func lastBarrierReport(t *testing.T, resp editsResponse) string {
	t.Helper()
	if len(resp.Barriers) == 0 {
		t.Fatal("edit script produced no barriers")
	}
	return resp.Barriers[len(resp.Barriers)-1].Report
}

func TestArenaSharedViews(t *testing.T) {
	dir := t.TempDir()

	// Reference arm: every session parses its own network.
	heap := newTestClient(t, Options{})
	heapSess := heap.create(withTop(t, 4))
	if st := heap.metrics().NetArena; st != (ArenaStats{}) {
		t.Fatalf("netarena gauges moved without a snapshot directory: %+v", st)
	}
	heapReport := heap.analyze(heapSess.Session).Report

	// Shared arm: a cold create seeds the cache, then three sessions
	// with distinct analysis directives all share one network.
	c := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c.create(withTop(t, 3)); resp.Source != "parse" {
		t.Fatalf("cold source = %q, want parse", resp.Source)
	}
	sessions := make([]createResponse, 0, 3)
	for top := 4; top <= 6; top++ {
		resp := c.create(withTop(t, top))
		if resp.Source != "snapshot" {
			t.Fatalf("top=%d source = %q, want snapshot", top, resp.Source)
		}
		sessions = append(sessions, resp)
	}
	st := c.metrics().NetArena
	if st.SharedSessions != 3 || st.Detaches != 0 {
		t.Fatalf("after 3 shared creates: %+v", st)
	}

	// Bit-identity shared-vs-parsed (same Top=4 config as the heap arm).
	if got := c.analyze(sessions[0].Session).Report; got != heapReport {
		t.Fatalf("shared report differs from heap:\n--- heap\n%s\n--- shared\n%s", heapReport, got)
	}

	// Copy-on-edit: the first edit barrier detaches the session onto a
	// private clone; the result must match the same edit applied to a
	// heap-loaded session.
	script := "cap out 2e-14\nrun\n"
	heapEdited := lastBarrierReport(t, heap.edits(heapSess.Session, script))
	sharedEdited := lastBarrierReport(t, c.edits(sessions[0].Session, script))
	if sharedEdited != heapEdited {
		t.Fatalf("post-detach report differs from heap:\n--- heap\n%s\n--- shared\n%s", heapEdited, sharedEdited)
	}
	st = c.metrics().NetArena
	if st.SharedSessions != 2 || st.Detaches != 1 {
		t.Fatalf("after detach: %+v", st)
	}

	// The still-attached sessions are unaffected by the detached
	// session's private edit.
	if got := c.analyze(sessions[1].Session).Report; got != heapReport {
		t.Fatal("shared network mutated by a detached session's edit")
	}

	// Deleting a shared session releases its reference; the network
	// stays shared by the session still holding one.
	if st := c.do("DELETE", "/v1/sessions/"+sessions[1].Session, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	st = c.metrics().NetArena
	if st.SharedSessions != 1 || st.Detaches != 1 {
		t.Fatalf("after delete: %+v", st)
	}

	// A new session shares it too.
	reacquired := c.create(withTop(t, 7))
	if reacquired.Source != "snapshot" {
		t.Fatalf("re-acquire source = %q, want snapshot", reacquired.Source)
	}
	if st = c.metrics().NetArena; st.SharedSessions != 2 {
		t.Fatalf("after re-acquire: %+v", st)
	}

	// The detached session released its reference when it detached;
	// deleting it must not release another.
	if st := c.do("DELETE", "/v1/sessions/"+sessions[0].Session, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if st = c.metrics().NetArena; st.SharedSessions != 2 || st.Detaches != 1 {
		t.Fatalf("after deleting the detached session: %+v", st)
	}

	// Once the last sharing session is gone, nothing keeps the network
	// alive: the arena forgets the entry at zero references and the
	// collector reclaims it.
	collected := watchCollection(serverOf(c).lookup(sessions[2].Session).nw)
	for _, id := range []string{sessions[2].Session, reacquired.Session} {
		if st := c.do("DELETE", "/v1/sessions/"+id, nil, nil); st != http.StatusOK {
			t.Fatalf("delete: status %d", st)
		}
	}
	if st = c.metrics().NetArena; st.SharedSessions != 0 || st.Detaches != 1 {
		t.Fatalf("after the last shared session went: %+v", st)
	}
	for deadline := time.Now().Add(5 * time.Second); !collected.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the shared network outlived its last session")
	}
}

// watchCollection returns a flag the collector sets once nw is freed.
// The finalizer closes over the flag only, so it does not pin nw.
func watchCollection(nw *netlist.Network) *atomic.Bool {
	var collected atomic.Bool
	runtime.SetFinalizer(nw, func(*netlist.Network) { collected.Store(true) })
	return &collected
}

// TestArenaConcurrentDetach races copy-on-edit detaches from two
// sessions sharing one network: both edit barriers fire concurrently
// (under -race in CI), each must detach exactly once onto its own
// private clone, and both results must be bit-identical to the same
// script applied to a heap-loaded session.
func TestArenaConcurrentDetach(t *testing.T) {
	dir := t.TempDir()
	script := "cap out 2e-14\nrun\nresize 2 6e-6 2e-6\nrun\n"

	// Heap control: the expected post-edit report with no cache and no
	// arena involved.
	heap := newTestClient(t, Options{})
	heapSess := heap.create(withTop(t, 3))
	heap.analyze(heapSess.Session)
	heapEdited := lastBarrierReport(t, heap.edits(heapSess.Session, script))

	// Shared arm: a cold create seeds the cache, then two sessions over
	// one network, analyzed, then edited from two goroutines at once.
	c := newTestClient(t, Options{SnapshotDir: dir})
	c.create(withTop(t, 5))
	a := c.create(withTop(t, 3))
	b := c.create(withTop(t, 4))
	if a.Source != "snapshot" || b.Source != "snapshot" {
		t.Fatalf("sources = %q, %q, want snapshot", a.Source, b.Source)
	}
	c.analyze(a.Session)
	c.analyze(b.Session)
	if st := c.metrics().NetArena; st.SharedSessions != 2 || st.Detaches != 0 {
		t.Fatalf("before edits: %+v", st)
	}

	var wg sync.WaitGroup
	reports := make([]string, 2)
	for i, id := range []string{a.Session, b.Session} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = lastBarrierReport(t, c.edits(id, script))
		}()
	}
	wg.Wait()

	for i, got := range reports {
		if got != heapEdited {
			t.Fatalf("session %d post-detach report differs from heap:\n--- heap\n%s\n--- shared\n%s",
				i, heapEdited, got)
		}
	}
	st := c.metrics().NetArena
	if st.SharedSessions != 0 || st.Detaches != 2 {
		t.Fatalf("after concurrent detaches: %+v", st)
	}
}

// TestArenaConcurrentCreates races warm creates of one chip on a daemon
// whose arena is still empty: the load runs outside the arena lock, so
// several of them may read the file at once. Every one must come back
// sharing the single network — the losers adopt the winner's and drop
// their own.
func TestArenaConcurrentCreates(t *testing.T) {
	dir := t.TempDir()
	newTestClient(t, Options{SnapshotDir: dir}).create(withTop(t, 3)) // seed the cache
	c := newTestClient(t, Options{SnapshotDir: dir})
	const n = 8
	var wg sync.WaitGroup
	sources := make([]string, n)
	for i := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sources[i] = c.create(withTop(t, 10+i)).Source
		}()
	}
	wg.Wait()
	for i, s := range sources {
		if s != "snapshot" {
			t.Errorf("create %d source = %q, want snapshot", i, s)
		}
	}
	if st := c.metrics().NetArena; st.SharedSessions != n {
		t.Fatalf("after %d concurrent creates: %+v", n, st)
	}
}
