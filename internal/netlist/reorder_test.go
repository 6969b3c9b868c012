package netlist

import (
	"fmt"
	"testing"

	"repro/internal/tech"
)

// reorderTestNetworks builds a spread of connectivity shapes for the
// permutation properties: a chain, a star, a disconnected forest with
// isolated nodes, and pseudo-random device soups of growing size.
func reorderTestNetworks(t *testing.T) []*Network {
	t.Helper()
	p := tech.NMOS4()
	var nets []*Network

	chain := New("chain", p)
	prev := chain.Node("in")
	chain.MarkInput(prev)
	for i := 0; i < 12; i++ {
		out := chain.Node(fmt.Sprintf("n%d", i))
		chain.AddTrans(tech.NEnh, prev, out, chain.GND(), 0, 0)
		chain.AddTrans(tech.NDep, out, chain.Vdd(), out, 0, 4*p.MinL)
		prev = out
	}
	nets = append(nets, chain)

	star := New("star", p)
	hub := star.Node("hub")
	for i := 0; i < 9; i++ {
		leaf := star.Node(fmt.Sprintf("leaf%d", i))
		star.AddTrans(tech.NEnh, hub, leaf, star.GND(), 0, 0)
	}
	nets = append(nets, star)

	forest := New("forest", p)
	for i := 0; i < 4; i++ {
		a := forest.Node(fmt.Sprintf("a%d", i))
		b := forest.Node(fmt.Sprintf("b%d", i))
		g := forest.Node(fmt.Sprintf("g%d", i))
		forest.MarkInput(g)
		forest.AddTrans(tech.NEnh, g, a, b, 0, 0)
		forest.Node(fmt.Sprintf("iso%d", i)) // no devices at all
	}
	nets = append(nets, forest)

	for _, size := range []int{20, 150} {
		nw := New(fmt.Sprintf("soup%d", size), p)
		nodes := make([]*Node, size)
		for i := range nodes {
			nodes[i] = nw.Node(fmt.Sprintf("s%d", i))
		}
		seed := uint64(0x2545F4914F6CDD1D)
		pick := func(n int) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int(seed>>33) % n
		}
		for i := 0; i < 3*size; i++ {
			g, a, b := nodes[pick(size)], nodes[pick(size)], nodes[pick(size)]
			if a == b {
				b = nw.GND()
			}
			nw.AddTrans(tech.NEnh, g, a, b, 0, 0)
		}
		nets = append(nets, nw)
	}
	return nets
}

// TestReorderBijection is the permutation property test: for every
// network shape, the RCM layout must be a true bijection — Perm and
// InvPerm exact inverses, every row assigned to exactly one node — with
// rails pinned to the highest rows, and the per-node adjacency and flags
// read through the permutation must match the identity compilation
// entry for entry. Reordering relocates data; it must never change it.
func TestReorderBijection(t *testing.T) {
	for _, nw := range reorderTestNetworks(t) {
		t.Run(nw.Name, func(t *testing.T) {
			n := len(nw.Nodes)
			off := CompileWith(nw, CompileOptions{})
			on := CompileWith(nw, CompileOptions{Reorder: true})
			if !on.Reordered || off.Reordered {
				t.Fatalf("Reordered flags: on=%v off=%v", on.Reordered, off.Reordered)
			}
			if len(on.Perm) != n || len(on.InvPerm) != n {
				t.Fatalf("Perm/InvPerm lengths %d/%d, want %d", len(on.Perm), len(on.InvPerm), n)
			}

			// Bijection: every row hit exactly once and the maps invert.
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				row := int(on.Perm[i])
				if row < 0 || row >= n {
					t.Fatalf("Perm[%d] = %d out of range", i, row)
				}
				if seen[row] {
					t.Fatalf("row %d assigned twice (second time to node %d)", row, i)
				}
				seen[row] = true
				if int(on.InvPerm[row]) != i {
					t.Fatalf("InvPerm[Perm[%d]] = %d, not the identity", i, on.InvPerm[row])
				}
			}

			// Rails occupy the last rows, so the hot prefix is rail-free.
			rails := 0
			for _, nd := range nw.Nodes {
				if nd.IsRail() {
					rails++
				}
			}
			for i, nd := range nw.Nodes {
				if nd.IsRail() && int(on.Perm[i]) < n-rails {
					t.Errorf("rail %s at row %d, want >= %d", nd.Name, on.Perm[i], n-rails)
				}
			}

			// Adjacency and flags preserved: per node (not per row), the
			// reordered compilation must serve the identical packed gate
			// refs and flag bits the identity compilation serves.
			for i := range nw.Nodes {
				w, g := off.Gates(i), on.Gates(i)
				if len(w) != len(g) {
					t.Fatalf("node %d: %d gate refs reordered, want %d", i, len(g), len(w))
				}
				for j := range w {
					if w[j] != g[j] {
						t.Errorf("node %d: gate ref %d = %d, want %d", i, j, g[j], w[j])
					}
				}
				or, ir := int(on.Perm[i]), i
				if on.IsRail[or] != off.IsRail[ir] || on.IsInput[or] != off.IsInput[ir] ||
					on.Precharged[or] != off.Precharged[ir] || on.HasTerms[or] != off.HasTerms[ir] {
					t.Errorf("node %d: flags changed under reordering", i)
				}
			}

			// With reorder off the layout is the identity.
			for i := 0; i < n; i++ {
				if off.Perm[i] != int32(i) || off.InvPerm[i] != int32(i) {
					t.Fatalf("identity layout broken at %d: perm=%d inv=%d",
						i, off.Perm[i], off.InvPerm[i])
				}
			}
		})
	}
}
