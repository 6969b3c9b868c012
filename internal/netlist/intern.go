// String interning for the ingest pipeline. A chip-scale .sim file
// mentions each net name many times (every transistor terminal, every
// capacitor plate, every directive), and the naive parse materializes a
// fresh substring for each mention — pinning whole scanner lines in the
// heap through the node-name references that survive parsing. The
// interner collapses every mention to one canonical allocation, shared by
// the parser, the alias table and the @-directive handlers, so resident
// symbol storage is proportional to the number of distinct nets, not the
// number of tokens.
package netlist

import "strings"

// Interner deduplicates strings. The zero value is not ready; use
// NewInterner. Not safe for concurrent use: ReadSim owns one per parse.
type Interner struct {
	m map[string]string
}

// NewInterner creates an interner with room for n distinct symbols.
func NewInterner(n int) *Interner {
	return &Interner{m: make(map[string]string, n)}
}

// Intern returns the canonical copy of s, allocating it on first sight.
// The lookup itself never allocates; the canonical copy is cloned so it
// does not pin whatever larger buffer s was sliced from (a scanner line).
func (in *Interner) Intern(s string) string {
	if c, ok := in.m[s]; ok {
		return c
	}
	c := strings.Clone(s)
	in.m[c] = c
	return c
}

// Len returns the number of distinct symbols interned.
func (in *Interner) Len() int { return len(in.m) }
