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
	// SourceSnapshot: a fresh snapshot, read into the heap.
	SourceSnapshot = "snapshot"
	// SourceParse: no usable snapshot; the network was built.
	SourceParse = "parse"
)

// LoadResult describes how LoadCached obtained the network.
type LoadResult struct {
	// Source is SourceSnapshot or SourceParse.
	Source string
}

// FromCache reports whether the build was skipped.
func (r LoadResult) FromCache() bool { return r.Source != SourceParse }

// LoadCached returns the network that build produces, labeled name, via
// the .simx cache file at snapshot when that is non-empty. A snapshot
// that decodes in technology p and records hash is read into the heap
// and served in place of building (SourceSnapshot). Anything else is a
// miss: build runs, the result must pass Network.Check, and the
// snapshot is rewritten, so a hit skips both the build and the
// structural check — a .simx file never holds a network that did not
// pass.
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
		if nw, got, err := readSnapshotFile(snapshot, p); err == nil && got == hash {
			nw.Name = name
			return nw, LoadResult{Source: SourceSnapshot}, nil
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

// readSnapshotFile reads the .simx file at path into the heap and
// decodes it in technology p.
func readSnapshotFile(path string, p *tech.Params) (*Network, [32]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, [32]byte{}, err
	}
	return decodeSnapshot(data, p)
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

// Deprecated: kept only because bench/service.go reads it; snapshots
// are always read into the heap.
const MmapSupported = false

// Deprecated: kept only because bench/probes.go reads it; a snapshot
// read into the heap by OpenMapped.
type Mapped struct {
	Net        *Network
	SourceHash [32]byte
}

// Close does nothing.
func (m *Mapped) Close() error { return nil }

// Deprecated: kept only because bench/probes.go calls it; reads the
// snapshot at path into the heap, as LoadCached's hit does.
func OpenMapped(path string, p *tech.Params) (*Mapped, error) {
	nw, hash, err := readSnapshotFile(path, p)
	if err != nil {
		return nil, err
	}
	return &Mapped{Net: nw, SourceHash: hash}, nil
}
