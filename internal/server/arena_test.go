// Shared network arena coverage: gauge accounting, copy-on-edit
// detach, and the bit-identity contract — analysis over the shared
// mapped view must match analysis over a privately parsed network (a
// daemon with no snapshot directory: no cache, no decoder, no arena) at
// any worker count, before and after an edit-triggered detach.
package server

import (
	"net/http"
	"sync"
	"testing"

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
	if !netlist.MmapSupported {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()

	// Reference arm: every session parses its own network.
	heap := newTestClient(t, Options{})
	heapSess := heap.create(withTop(t, 4))
	if st := heap.metrics().NetArena; st != (ArenaStats{}) {
		t.Fatalf("netarena gauges moved without a snapshot directory: %+v", st)
	}
	heapW1 := heap.analyze(heapSess.Session, 1).Report
	heapW8 := heap.analyze(heapSess.Session, 8).Report
	if heapW1 != heapW8 {
		t.Fatal("heap arm: workers-identity violated")
	}

	// Shared arm: a cold create seeds the cache, then three sessions
	// with distinct analysis directives all alias one mapping.
	c := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c.create(withTop(t, 3)); resp.Source != "parse" {
		t.Fatalf("cold source = %q, want parse", resp.Source)
	}
	sessions := make([]createResponse, 0, 3)
	for top := 4; top <= 6; top++ {
		resp := c.create(withTop(t, top))
		if resp.Source != "mmap" {
			t.Fatalf("top=%d source = %q, want mmap", top, resp.Source)
		}
		sessions = append(sessions, resp)
	}
	st := c.metrics().NetArena
	if st.Mappings != 1 || st.SharedSessions != 3 || st.Detaches != 0 {
		t.Fatalf("after 3 shared creates: %+v", st)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes = %d, want > 0", st.ResidentBytes)
	}

	// Bit-identity mapped-vs-heap at workers 1 and 8 (same Top=4 config
	// as the heap arm).
	if got := c.analyze(sessions[0].Session, 1).Report; got != heapW1 {
		t.Fatalf("mapped w1 report differs from heap:\n--- heap\n%s\n--- mapped\n%s", heapW1, got)
	}
	if got := c.analyze(sessions[0].Session, 8).Report; got != heapW8 {
		t.Fatal("mapped w8 report differs from heap")
	}

	// Copy-on-edit: the first edit barrier detaches the session onto a
	// private clone; the result must match the same edit applied to a
	// heap-loaded session.
	script := "cap out 2e-14\nrun\n"
	heapEdited := lastBarrierReport(t, heap.edits(heapSess.Session, script))
	mappedEdited := lastBarrierReport(t, c.edits(sessions[0].Session, script))
	if mappedEdited != heapEdited {
		t.Fatalf("post-detach report differs from heap:\n--- heap\n%s\n--- mapped\n%s", heapEdited, mappedEdited)
	}
	st = c.metrics().NetArena
	if st.Mappings != 1 || st.SharedSessions != 2 || st.Detaches != 1 {
		t.Fatalf("after detach: %+v", st)
	}

	// The still-attached sessions are unaffected by the detached
	// session's private edit.
	if got := c.analyze(sessions[1].Session, 1).Report; got != heapW1 {
		t.Fatal("shared view mutated by a detached session's edit")
	}

	// Deleting a shared session releases its reference; the mapping
	// stays resident for the next session of the same chip.
	if st := c.do("DELETE", "/v1/sessions/"+sessions[1].Session, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	st = c.metrics().NetArena
	if st.Mappings != 1 || st.SharedSessions != 1 || st.Detaches != 1 {
		t.Fatalf("after delete: %+v", st)
	}

	// A new session re-acquires the resident mapping.
	if resp := c.create(withTop(t, 7)); resp.Source != "mmap" {
		t.Fatalf("re-acquire source = %q, want mmap", resp.Source)
	}
	if st = c.metrics().NetArena; st.Mappings != 1 || st.SharedSessions != 2 {
		t.Fatalf("after re-acquire: %+v", st)
	}
}

// TestArenaConcurrentDetach races copy-on-edit detaches from two
// sessions aliasing one mapping: both edit barriers fire concurrently
// (under -race in CI), each must detach exactly once onto its own
// private clone, and both results must be bit-identical to the same
// script applied to a heap-loaded session.
func TestArenaConcurrentDetach(t *testing.T) {
	if !netlist.MmapSupported {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	script := "cap out 2e-14\nrun\nresize 2 6e-6 2e-6\nrun\n"

	// Heap control: the expected post-edit report with no cache and no
	// arena involved.
	heap := newTestClient(t, Options{})
	heapSess := heap.create(withTop(t, 3))
	heap.analyze(heapSess.Session, 1)
	heapEdited := lastBarrierReport(t, heap.edits(heapSess.Session, script))

	// Shared arm: a cold create seeds the cache, then two sessions over
	// one mapping, analyzed, then edited from two goroutines at once.
	c := newTestClient(t, Options{SnapshotDir: dir})
	c.create(withTop(t, 5))
	a := c.create(withTop(t, 3))
	b := c.create(withTop(t, 4))
	if a.Source != "mmap" || b.Source != "mmap" {
		t.Fatalf("sources = %q, %q, want mmap", a.Source, b.Source)
	}
	c.analyze(a.Session, 1)
	c.analyze(b.Session, 1)
	if st := c.metrics().NetArena; st.Mappings != 1 || st.SharedSessions != 2 || st.Detaches != 0 {
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
			t.Fatalf("session %d post-detach report differs from heap:\n--- heap\n%s\n--- mapped\n%s",
				i, heapEdited, got)
		}
	}
	st := c.metrics().NetArena
	if st.Mappings != 1 || st.SharedSessions != 0 || st.Detaches != 2 {
		t.Fatalf("after concurrent detaches: %+v", st)
	}
}

// TestArenaConcurrentCreates races warm creates of one chip on a daemon
// whose arena is still empty: the load runs outside the arena lock, so
// several of them may map the file at once. Every one must come back
// aliasing the single resident view — the losers adopt the winner's and
// unmap their own.
func TestArenaConcurrentCreates(t *testing.T) {
	if !netlist.MmapSupported {
		t.Skip("no mmap on this platform")
	}
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
		if s != "mmap" {
			t.Errorf("create %d source = %q, want mmap", i, s)
		}
	}
	if st := c.metrics().NetArena; st.Mappings != 1 || st.SharedSessions != n {
		t.Fatalf("after %d concurrent creates: %+v", n, st)
	}
}
