// Network loading through the snapshot cache. The cache protocol is
// deliberately simple — one .simx file per source, keyed by a content
// hash, validated on every load — and it is written down once, in
// LoadCached:
//
//	snapshot opens && snapshot.hash == hash && snapshot.tech == tech
//	    → serve the snapshot (no build, no Check), relabeled to name
//	otherwise
//	    → build, Check, then rewrite the snapshot atomically
//
// Editing the source, switching technologies, corrupting or truncating
// the snapshot, or finding a file in a format this build does not read
// all fail one of the checks and fall back to a build; a stale snapshot
// can never be served, and the rewrite heals the file.
package netlist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tech"
)

// LoadOptions configures LoadSimFile.
type LoadOptions struct {
	// Deprecated: kept only because bench/cold.go and bench/probes.go set
	// it; ignored.
	Workers int
	// Snapshot, when non-empty, is the path of the .simx cache file to
	// load from when fresh and rewrite after a parse. Empty disables
	// caching.
	Snapshot string
}

// Load sources.
const (
	// SourceMmap: a fresh snapshot served as a memory-mapped view.
	SourceMmap = "mmap"
	// SourceSnapshot: a fresh snapshot read into the heap, on a platform
	// without mmap.
	SourceSnapshot = "snapshot"
	// SourceParse: no usable snapshot; the network was built.
	SourceParse = "parse"
)

// LoadResult describes how LoadCached obtained the network.
type LoadResult struct {
	// Source is SourceMmap, SourceSnapshot or SourceParse.
	Source string
	// Mapped is the live mapping when Source is SourceMmap, else nil.
	// The caller owns its lifetime; see Mapped.Close for the rules.
	// Callers that cannot bound the network's lifetime keep it open for
	// the life of the process.
	Mapped *Mapped
}

// FromCache reports whether the build was skipped.
func (r LoadResult) FromCache() bool { return r.Source != SourceParse }

// LoadCached returns the network that build produces, labeled name, via
// the .simx cache file at snapshot when that is non-empty. A snapshot
// that opens in technology p and records hash is served in place of
// building — mapped where the platform can (SourceMmap), read into the
// heap elsewhere (SourceSnapshot). Anything else is a miss: build runs,
// the result must pass Network.Check, and the snapshot is rewritten, so
// a hit skips both the build and the structural check — a .simx file
// never holds a network that did not pass.
//
// The name is a caller-chosen label, not part of the structure the hash
// pins, so a hit is relabeled; this lets a snapshot emitted by
// `benchgen -snapshot` serve `crystal -sim f.sim`, whose name (the file
// path) benchgen cannot know.
//
// A snapshot write failure is returned with the network, which itself
// loaded — callers that only care about the network may ignore the
// error, but silently losing the cache forever is worse than saying so.
func LoadCached(snapshot, name string, p *tech.Params, hash [32]byte, build func() (*Network, error)) (*Network, LoadResult, error) {
	if snapshot != "" {
		if nw, res, ok := openFresh(snapshot, p, hash); ok {
			nw.Name = name
			return nw, res, nil
		}
	}
	res := LoadResult{Source: SourceParse}
	nw, err := build()
	if err != nil {
		return nil, res, err
	}
	nw.Name = name
	if err := nw.Check(); err != nil {
		return nil, res, err
	}
	if snapshot != "" {
		if err := WriteSnapshotFile(snapshot, nw, hash); err != nil {
			return nw, res, fmt.Errorf("writing snapshot: %w", err)
		}
	}
	return nw, res, nil
}

// openFresh opens the snapshot at path and reports whether it decodes
// in technology p and records hash.
func openFresh(path string, p *tech.Params, hash [32]byte) (*Network, LoadResult, bool) {
	if mmapSupported {
		m, err := OpenMapped(path, p)
		if err != nil {
			return nil, LoadResult{}, false
		}
		if m.SourceHash != hash {
			m.Close() // stale: the network never escaped, unmapping is safe
			return nil, LoadResult{}, false
		}
		return m.Net, LoadResult{Source: SourceMmap, Mapped: m}, true
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadResult{}, false
	}
	defer f.Close()
	nw, got, err := ReadSnapshot(f, p)
	if err != nil || got != hash {
		return nil, LoadResult{}, false
	}
	return nw, LoadResult{Source: SourceSnapshot}, true
}

// LoadSimFile reads the .sim netlist at path into a checked Network
// named name: LoadCached keyed by the SHA-256 of the file's bytes, the
// build being ReadSim. Without a snapshot nothing reads the key, so the
// file is not hashed.
func LoadSimFile(name, path string, p *tech.Params, opt LoadOptions) (*Network, LoadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, LoadResult{}, err
	}
	var hash [32]byte
	if opt.Snapshot != "" {
		hash = sha256.Sum256(data)
	}
	return LoadCached(opt.Snapshot, name, p, hash, func() (*Network, error) {
		return ReadSim(name, p, bytes.NewReader(data))
	})
}

// WriteSnapshotFile writes nw as a .simx snapshot at path, atomically:
// the bytes land in a temp file in the same directory and are renamed
// into place, so concurrent readers see either the old snapshot or the
// new one, never a torn write.
func WriteSnapshotFile(path string, nw *Network, sourceHash [32]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".simx-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, nw, sourceHash); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
