//go:build linux || darwin

package netlist

import (
	"os"
	"syscall"
)

// mmapSupported reports that snapshots can be mapped; where they cannot,
// LoadCached reads them into the heap instead.
const mmapSupported = true

// mmapFile maps the file read-only and shared: pages are backed by the
// page cache, so N processes (or N sessions in one process) mapping the
// same snapshot share one physical copy. Platforms that have it add a
// populate flag (see mmapExtraFlags): the loader is about to checksum
// every byte anyway, and one batched prefault is far cheaper than a few
// thousand individual soft faults taken from inside the CRC loop.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED|mmapExtraFlags)
}

func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}
