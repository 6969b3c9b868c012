//go:build linux

package netlist

import "syscall"

// mmapExtraFlags asks the kernel to prefault the whole mapping at mmap
// time. The decoder reads every payload byte immediately (payload
// checksum), so the pages are all needed anyway; populating them in one
// syscall avoids a soft fault per 4 KiB page on the first pass.
const mmapExtraFlags = syscall.MAP_POPULATE
