package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tech"
)

// TestLoadCached is the cache protocol, row by row: every way a cache
// file can fail to be the fresh snapshot of this source is a miss that
// builds, checks and heals the file; a fresh file is served without
// building or checking.
func TestLoadCached(t *testing.T) {
	p := tech.NMOS4()
	want, err := ReadSim("label", p, strings.NewReader(sampleSim))
	if err != nil {
		t.Fatal(err)
	}
	hash := sha256.Sum256([]byte(sampleSim))
	fresh := snapshotBytes(t, want, hash)

	for _, tc := range []struct {
		name string
		file []byte // nil = no file
	}{
		{"missing", nil},
		{"stale hash", snapshotBytes(t, want, sha256.Sum256([]byte("older source")))},
		{"wrong tech", snapshotBytes(t, randomNetwork(1, tech.CMOS3()), hash)},
		{"corrupt", func() []byte {
			b := bytes.Clone(fresh)
			b[len(b)-3] ^= 0x10
			return b
		}()},
		{"truncated", fresh[:len(fresh)/2]},
		{"empty", []byte{}},
		{"v1 file", func() []byte {
			// The retired format's 12-byte prefix (magic, version 1,
			// IEEE CRC) over an arbitrary payload.
			b := append([]byte(snapshotMagic), make([]byte, 40)...)
			binary.LittleEndian.PutUint32(b[4:8], 1)
			return b
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.simx")
			if tc.file != nil {
				if err := os.WriteFile(path, tc.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			builds := 0
			build := func() (*Network, error) {
				builds++
				return ReadSim("whatever the builder calls it", p, strings.NewReader(sampleSim))
			}
			nw, res, err := LoadCached(path, "label", p, hash, build)
			if err != nil {
				t.Fatal(err)
			}
			if builds != 1 || res.Source != SourceParse || res.FromCache() {
				t.Fatalf("miss: %d builds, result %+v", builds, res)
			}
			if derr := DiffNetworks(want, nw); derr != nil {
				t.Fatal(derr)
			}
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(healed, fresh) {
				t.Fatal("miss did not heal the cache file to the fresh snapshot")
			}
			warm, res, err := LoadCached(path, "label", p, hash, build)
			if err != nil {
				t.Fatal(err)
			}
			if builds != 1 || res.Source != SourceSnapshot {
				t.Fatalf("hit after heal: %d builds, result %+v", builds, res)
			}
			if derr := DiffNetworks(want, warm); derr != nil {
				t.Fatal(derr)
			}
		})
	}

	t.Run("fresh hit skips build and Check, relabels", func(t *testing.T) {
		// A network Check rejects (a transistor shorting the supplies),
		// written directly: only a load that skips Check can serve it.
		bad := New("stored name", p)
		bad.AddTrans(tech.NEnh, bad.Node("g"), bad.Vdd(), bad.GND(), 0, 0)
		if bad.Check() == nil {
			t.Fatal("fixture passes Check")
		}
		path := filepath.Join(t.TempDir(), "c.simx")
		if err := WriteSnapshotFile(path, bad, hash); err != nil {
			t.Fatal(err)
		}
		nw, res, err := LoadCached(path, "label", p, hash, func() (*Network, error) {
			t.Fatal("fresh snapshot rebuilt")
			return nil, nil
		})
		if err != nil || res.Source != SourceSnapshot {
			t.Fatalf("source %q err %v", res.Source, err)
		}
		bad.Name = "label"
		if derr := DiffNetworks(bad, nw); derr != nil {
			t.Fatal(derr)
		}
	})

	t.Run("build and Check errors, no file written", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "c.simx")
		boom := errors.New("boom")
		if nw, _, err := LoadCached(path, "label", p, hash, func() (*Network, error) { return nil, boom }); nw != nil || !errors.Is(err, boom) {
			t.Fatalf("build error: nw %v err %v", nw, err)
		}
		if nw, _, err := LoadCached(path, "label", p, hash, func() (*Network, error) {
			bad := New("bad", p)
			bad.AddTrans(tech.NEnh, bad.Node("g"), bad.Vdd(), bad.GND(), 0, 0)
			return bad, nil
		}); nw != nil || err == nil {
			t.Fatalf("Check failure: nw %v err %v", nw, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("failed load wrote a snapshot")
		}
	})

	t.Run("write failure returns the network and says so", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "no-such-dir", "c.simx")
		nw, res, err := LoadCached(path, "label", p, hash, func() (*Network, error) {
			return ReadSim("x", p, strings.NewReader(sampleSim))
		})
		if nw == nil || err == nil || res.Source != SourceParse {
			t.Fatalf("nw %v source %q err %v", nw, res.Source, err)
		}
	})

	t.Run("no cache path", func(t *testing.T) {
		nw, res, err := LoadCached("", "label", p, hash, func() (*Network, error) {
			return ReadSim("x", p, strings.NewReader(sampleSim))
		})
		if err != nil || res.FromCache() {
			t.Fatalf("source %q err %v", res.Source, err)
		}
		if derr := DiffNetworks(want, nw); derr != nil {
			t.Fatal(derr)
		}
	})
}

// TestLoadSimFile: LoadSimFile is LoadCached keyed by the file's bytes —
// cold miss parses and writes, warm hit skips the parse, editing the
// source invalidates, and with no Snapshot nothing is written.
func TestLoadSimFile(t *testing.T) {
	p := tech.NMOS4()
	dir := t.TempDir()
	simPath := filepath.Join(dir, "sample.sim")
	snapPath := filepath.Join(dir, "sample.simx")
	if err := os.WriteFile(simPath, []byte(sampleSim), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := LoadOptions{Snapshot: snapPath}

	cold, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceParse {
		t.Fatalf("cold load claimed a cache hit (source %q)", res.Source)
	}
	warm, res, err := LoadSimFile("other", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceSnapshot || warm.Name != "other" {
		t.Fatalf("warm load: source %q name %q", res.Source, warm.Name)
	}
	warm.Name = cold.Name
	if derr := DiffNetworks(cold, warm); derr != nil {
		t.Fatalf("warm network differs: %v", derr)
	}

	// Append a record: the content hash changes, so the snapshot must be
	// ignored and rewritten.
	if err := os.WriteFile(simPath, []byte(sampleSim+"N extra 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edited, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache() || edited.Lookup("extra") == nil {
		t.Fatalf("stale snapshot served after source edit (source %q)", res.Source)
	}
	again, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache() || again.Lookup("extra") == nil {
		t.Fatalf("snapshot not refreshed after edit (source %q)", res.Source)
	}

	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, res, err = LoadSimFile("sample", simPath, p, LoadOptions{}); err != nil || res.FromCache() {
		t.Fatalf("uncached load: source=%q err=%v", res.Source, err)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatal("uncached load wrote a snapshot")
	}
}

// TestLoadSimFileKey: the hash LoadSimFile skips when no snapshot is asked
// for is the cache key when one is — a miss records the SHA-256 of the
// file's bytes, and a hit is served only under that key — while an uncached
// load still yields the parsed network.
func TestLoadSimFileKey(t *testing.T) {
	p := tech.NMOS4()
	dir := t.TempDir()
	simPath := filepath.Join(dir, "sample.sim")
	snapPath := filepath.Join(dir, "sample.simx")
	if err := os.WriteFile(simPath, []byte(sampleSim), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ReadSim("sample", p, strings.NewReader(sampleSim))
	if err != nil {
		t.Fatal(err)
	}
	plain, res, err := LoadSimFile("sample", simPath, p, LoadOptions{})
	if err != nil || res.Source != SourceParse {
		t.Fatalf("uncached load: source=%q err=%v", res.Source, err)
	}
	if derr := DiffNetworks(want, plain); derr != nil {
		t.Fatal(derr)
	}
	opt := LoadOptions{Snapshot: snapPath}
	if _, res, err = LoadSimFile("sample", simPath, p, opt); err != nil || res.Source != SourceParse {
		t.Fatalf("miss: source=%q err=%v", res.Source, err)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	_, key, err := ReadSnapshot(f, p)
	f.Close()
	if err != nil || key != sha256.Sum256([]byte(sampleSim)) {
		t.Fatalf("snapshot key %x, err %v: not the file's SHA-256", key, err)
	}
	hit, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil || res.Source != SourceSnapshot {
		t.Fatalf("hit: source=%q err=%v", res.Source, err)
	}
	if derr := DiffNetworks(want, hit); derr != nil {
		t.Fatal(derr)
	}
	// A snapshot under any other key is a miss, the zero key included.
	if err := WriteSnapshotFile(snapPath, want, [32]byte{}); err != nil {
		t.Fatal(err)
	}
	if _, res, err = LoadSimFile("sample", simPath, p, opt); err != nil || res.Source != SourceParse {
		t.Fatalf("zero-key snapshot served: source=%q err=%v", res.Source, err)
	}
}
