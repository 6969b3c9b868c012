// Memory-mapped snapshot loading. OpenMapped maps a .simx file
// read-only and hands the mapping to decodeSnapshot, so the Network's
// node names are string views straight into the mapped pages — no file
// read and no payload copy. The mapping is shared (MAP_SHARED,
// PROT_READ), so every mapping of the same file — across sessions or
// across processes — aliases one set of physical page-cache pages: the
// RSS cost of the name payload is paid once per machine, not per load.
//
// Lifetime: node-name string headers point into the mapped pages and
// escape freely into clones, reports and analysis results, so the
// mapping must outlive every structure that may still hold such a
// string. Close is therefore explicitly the caller's assertion that
// nothing derived from the network is alive; callers that cannot prove
// that (CLIs, the server's shared arena) simply never unmap — read-only
// file-backed pages are reclaimable by the OS under pressure, so a
// retained mapping costs address space, not wired memory.
package netlist

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/tech"
)

// MmapSupported reports whether this platform can map snapshots; when
// false OpenMapped always errors and LoadCached reads the file instead.
const MmapSupported = mmapSupported

// Mapped is a Network backed by a read-only memory mapping of a .simx
// file.
type Mapped struct {
	// Net is the materialized network. Its node Name strings alias the
	// mapping; see the package comment on lifetime.
	Net *Network
	// SourceHash is the cache key recorded at write time.
	SourceHash [32]byte

	data      []byte
	closeOnce sync.Once
	closeErr  error
}

// Size returns the mapped length in bytes — the address-space cost of
// keeping the view alive, useful for RSS accounting.
func (m *Mapped) Size() int { return len(m.data) }

// Close unmaps the file. The caller asserts that no string derived from
// the network (names, cloned networks, formatted reports) is reachable;
// violating that turns later reads into faults. Closing twice is safe.
func (m *Mapped) Close() error {
	m.closeOnce.Do(func() {
		if m.data != nil {
			m.closeErr = munmapFile(m.data)
			m.data = nil
		}
	})
	return m.closeErr
}

// OpenMapped maps the .simx file at path and decodes the mapping in
// place. Any failure — unsupported platform, unreadable, corrupt,
// truncated or foreign image — is an error, and nothing stays mapped.
func OpenMapped(path string, p *tech.Params) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping survives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if !st.Mode().IsRegular() || size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("simx: not a mappable snapshot file")
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("simx: mmap: %w", err)
	}
	nw, hash, err := decodeSnapshot(data, p)
	if err != nil {
		munmapFile(data) // every decode pass has finished; nothing escaped
		return nil, err
	}
	return &Mapped{Net: nw, SourceHash: hash, data: data}, nil
}
