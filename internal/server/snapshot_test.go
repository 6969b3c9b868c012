// Warm-start cache coverage: a daemon with a snapshot directory must
// parse a given netlist exactly once across its own lifetime *and*
// across restarts and serve warm loads from the .simx cache with
// identical analysis results. The cache protocol itself — what is a hit,
// what is a miss, how a miss heals the file — is netlist.LoadCached's
// and is tested there; what is the server's own is the file naming
// (network identity: source hash + tech + name, so configs that differ
// only in analysis directives share one file and one network), the
// source field and the snapshots.* counters.
package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// snapshotFiles lists the .simx entries in dir.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.simx"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	cfg := dlatchConfig(t)

	// Cold daemon, cold cache: the load parses and persists a snapshot.
	c1 := newTestClient(t, Options{SnapshotDir: dir})
	cold := c1.create(cfg)
	if cold.Source != "parse" {
		t.Fatalf("cold load source = %q, want parse", cold.Source)
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("snapshot files after cold load: %v", files)
	}
	coldReport := c1.analyze(cold.Session).Report
	m := c1.metrics()
	if m.Snapshots.Hits != 0 || m.Snapshots.Misses != 1 || m.Snapshots.Writes != 1 {
		t.Fatalf("cold metrics: %+v", m.Snapshots)
	}

	// "Restart": a fresh server over the same directory. The LRU is
	// empty (no dedup possible), so only the snapshot cache can skip the
	// parse — and it must.
	c2 := newTestClient(t, Options{SnapshotDir: dir})
	warm := c2.create(cfg)
	if warm.Source != "snapshot" {
		t.Fatalf("warm load source = %q, want snapshot", warm.Source)
	}
	if warm.Cached {
		t.Fatal("warm load claimed LRU dedup on a fresh server")
	}
	if warm.Nodes != cold.Nodes || warm.Transistors != cold.Transistors {
		t.Fatalf("warm network shape %d/%d differs from cold %d/%d",
			warm.Nodes, warm.Transistors, cold.Nodes, cold.Transistors)
	}
	// The analysis over the snapshot-loaded network is byte-identical.
	if warmReport := c2.analyze(warm.Session).Report; warmReport != coldReport {
		t.Fatalf("warm report differs from cold:\n--- cold\n%s\n--- warm\n%s", coldReport, warmReport)
	}
	m = c2.metrics()
	if m.Snapshots.Hits != 1 || m.Snapshots.Misses != 0 || m.Snapshots.Writes != 0 {
		t.Fatalf("warm metrics: %+v", m.Snapshots)
	}

	// Same daemon, repeated POST after deleting the session: the LRU no
	// longer holds it, so this is another cache hit, not a parse.
	if st := c2.do("DELETE", "/v1/sessions/"+warm.Session, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	again := c2.create(cfg)
	if again.Source != "snapshot" {
		t.Fatalf("re-create after eviction: source = %q, want snapshot", again.Source)
	}

	// A config change (different fix directive) is a different LRU key
	// but the *same network*: snapshot files are keyed by network
	// identity, so this is another warm hit against the same single
	// file, not a parse.
	cfg2 := dlatchConfig(t)
	cfg2.Fix = map[string]string{"wr": "0"}
	other := c2.create(cfg2)
	if other.Source != "snapshot" {
		t.Fatalf("changed config source = %q, want snapshot", other.Source)
	}
	if other.Cached {
		t.Fatal("changed config claimed LRU dedup")
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("snapshot files after second config: %v (want the shared network file only)", files)
	}
	m = c2.metrics()
	if m.Snapshots.Hits != 3 || m.Snapshots.Misses != 0 || m.Snapshots.Writes != 0 {
		t.Fatalf("metrics after shared-network hit: %+v", m.Snapshots)
	}

	// A genuinely different network (different report name) gets its own
	// snapshot file.
	cfg3 := dlatchConfig(t)
	cfg3.Name = "dlatch-b"
	if resp := c2.create(cfg3); resp.Source != "parse" {
		t.Fatalf("renamed network source = %q, want parse", resp.Source)
	}
	if files := snapshotFiles(t, dir); len(files) != 2 {
		t.Fatalf("snapshot files after renamed network: %v", files)
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := dlatchConfig(t)
	c := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c.create(cfg); resp.Source != "parse" {
		t.Fatalf("cold source = %q", resp.Source)
	}
	files := snapshotFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("snapshot files: %v", files)
	}
	// Flip one payload byte: the load must go through LoadCached's miss
	// path — parse, and rewrite the snapshot.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, Options{SnapshotDir: dir})
	resp := c2.create(cfg)
	if resp.Source != "parse" {
		t.Fatalf("corrupt snapshot served: source = %q", resp.Source)
	}
	// And the rewrite healed the cache.
	c3 := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c3.create(cfg); resp.Source != "snapshot" {
		t.Fatalf("healed cache source = %q, want snapshot", resp.Source)
	}
}

// TestSnapshotDisabled pins the default: no snapshot directory, no
// source field, no cache files.
func TestSnapshotDisabled(t *testing.T) {
	c := newTestClient(t, Options{})
	resp := c.create(dlatchConfig(t))
	if resp.Source != "" {
		t.Fatalf("source = %q with cache disabled, want empty", resp.Source)
	}
	m := c.metrics()
	if m.Snapshots.Hits != 0 || m.Snapshots.Misses != 0 || m.Snapshots.Writes != 0 {
		t.Fatalf("snapshot metrics moved with cache disabled: %+v", m.Snapshots)
	}
}

// TestRejectedCreateCountsItsLoad: a create whose directives are rejected
// after its load still counts that load — on an empty cache it parsed and
// wrote a snapshot, and the next such create is a hit that hands the
// shared network back to the arena.
func TestRejectedCreateCountsItsLoad(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t, Options{SnapshotDir: dir})
	cfg := dlatchConfig(t)
	cfg.Fix = map[string]string{"wr": "x"}
	type counts struct{ Hits, Misses, Writes int64 }
	for i, want := range []counts{{Misses: 1, Writes: 1}, {Hits: 1, Misses: 1, Writes: 1}} {
		if st := c.do("POST", "/v1/sessions", cfg, nil); st != http.StatusBadRequest {
			t.Fatalf("create %d: status %d, want 400", i, st)
		}
		m := c.metrics()
		if got := counts(m.Snapshots); got != want || m.NetArena.SharedSessions != 0 {
			t.Fatalf("after rejected create %d: snapshots %+v, shared %d; want %+v, 0",
				i, got, m.NetArena.SharedSessions, want)
		}
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("snapshot files after the rejected creates: %v", files)
	}
}
