//go:build !linux && !darwin

package netlist

import (
	"errors"
	"os"
)

const mmapSupported = false

var errMmapUnsupported = errors.New("simx: mmap not supported on this platform")

func mmapFile(f *os.File, size int) ([]byte, error) { return nil, errMmapUnsupported }

func munmapFile(b []byte) error { return nil }
