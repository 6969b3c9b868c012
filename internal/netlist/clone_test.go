package netlist

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/tech"
)

// cloneTestNetwork is a device soup with every list shape Clone carves:
// empty, single-entry and long Gates/Terms lists, a device with both
// channel terminals on one node, and a hole left by RemoveTrans.
func cloneTestNetwork() *Network {
	p := tech.NMOS4()
	nw := New("soup", p)
	nodes := make([]*Node, 40)
	for i := range nodes {
		nodes[i] = nw.Node(fmt.Sprintf("s%d", i))
	}
	nw.MarkInput(nodes[0])
	seed := uint64(0x9E3779B97F4A7C15)
	pick := func() *Node {
		seed = seed*6364136223846793005 + 1442695040888963407
		return nodes[int(seed>>33)%(len(nodes)-4)] // the last four stay bare
	}
	for i := 0; i < 120; i++ {
		nw.AddTrans(tech.NEnh, pick(), pick(), pick(), 0, 0)
	}
	nw.AddTrans(tech.NDep, nodes[3], nodes[3], nodes[3], 0, 0)
	nw.RemoveTrans(nw.Trans[17])
	return nw
}

// editLikeABatch applies one of everything an edit batch can do to nw.
func editLikeABatch(nw *Network, tag string) {
	fresh := nw.Node("fresh_" + tag)
	nw.AddTrans(tech.NEnh, nw.Lookup("s1"), nw.Lookup("s2"), fresh, 0, 0)
	nw.AddTrans(tech.NEnh, fresh, nw.Lookup("s3"), nw.GND(), 0, 0)
	nw.RemoveTrans(nw.Trans[5])
	nw.AddCap(nw.Lookup("s4"), 7e-15)
	nw.Trans[9].W *= 2
}

// TestCloneSlabsAreIndependent pins what carving a clone out of three slabs
// must not change: every list is clipped to its length, so an append on one
// generation reallocates instead of writing into a neighbouring list, and
// the name index two generations share stops being shared the moment either
// creates a node. Edits on the clone leave the original exactly as an
// earlier clone recorded it, and the other way round.
func TestCloneSlabsAreIndependent(t *testing.T) {
	orig := cloneTestNetwork()
	if err := orig.Check(); err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	if err := DiffNetworks(orig, clone); err != nil {
		t.Fatalf("fresh clone differs: %v", err)
	}
	if err := clone.Check(); err != nil {
		t.Fatalf("fresh clone: %v", err)
	}
	carved := 0
	for _, n := range clone.Nodes {
		for _, l := range [][]*Trans{n.Gates, n.Terms} {
			if cap(l) != len(l) {
				t.Fatalf("node %s: a list of %d entries has capacity %d; an append would write into the next list",
					n.Name, len(l), cap(l))
			}
			carved += len(l)
		}
	}
	if carved == 0 {
		t.Fatal("nothing was carved")
	}
	for i, n := range clone.Nodes {
		if n == orig.Nodes[i] {
			t.Fatalf("node %s is shared with the original", n.Name)
		}
		if got := clone.Lookup(n.Name); got != n {
			t.Fatalf("clone.Lookup(%q) = %v, not the clone's own node", n.Name, got)
		}
		if got := orig.Lookup(n.Name); got != orig.Nodes[i] {
			t.Fatalf("orig.Lookup(%q) = %v, not the original's own node", n.Name, got)
		}
	}
	for i, tr := range clone.Trans {
		if tr == orig.Trans[i] || tr.Gate != clone.Nodes[tr.Gate.Index] ||
			tr.A != clone.Nodes[tr.A.Index] || tr.B != clone.Nodes[tr.B.Index] {
			t.Fatalf("transistor %d reaches outside the clone", i)
		}
	}

	// Edit the clone; the original must still equal a reference clone taken
	// before, name lookups included.
	ref := orig.Clone()
	editLikeABatch(clone, "c")
	if err := clone.Check(); err != nil {
		t.Fatalf("edited clone: %v", err)
	}
	if err := DiffNetworks(orig, ref); err != nil {
		t.Fatalf("editing the clone changed the original: %v", err)
	}
	if err := orig.Check(); err != nil {
		t.Fatalf("original after the clone was edited: %v", err)
	}
	if n := orig.Lookup("fresh_c"); n != nil {
		t.Fatalf("the original resolves a node only the clone created: %v", n)
	}
	if n := ref.Lookup("fresh_c"); n != nil {
		t.Fatalf("a sibling clone resolves a node only the clone created: %v", n)
	}
	if n := clone.Lookup("fresh_c"); n == nil || clone.Nodes[n.Index] != n {
		t.Fatalf("the clone lost the node it created: %v", n)
	}

	// And the other way round: edit the original, the clone stays as its own
	// earlier clone recorded it.
	cref := clone.Clone()
	editLikeABatch(orig, "o")
	if err := orig.Check(); err != nil {
		t.Fatalf("edited original: %v", err)
	}
	if err := DiffNetworks(clone, cref); err != nil {
		t.Fatalf("editing the original changed the clone: %v", err)
	}
	if n := clone.Lookup("fresh_o"); n != nil {
		t.Fatalf("the clone resolves a node only the original created: %v", n)
	}
	if n := orig.Lookup("fresh_c"); n != nil {
		t.Fatalf("the original resolves a node only the clone created: %v", n)
	}
	// Both created a node at the same index under different names.
	if o, c := orig.Lookup("fresh_o"), clone.Lookup("fresh_c"); o == nil || c == nil || o.Index != c.Index {
		t.Fatalf("fresh nodes: %v / %v, want both at one index", o, c)
	}
}

// TestCloneLeavesLazyNameIndexUnbuilt: a decoded network has no name index
// until somebody looks a name up, and cloning it — what a session's first
// edit does to a network many sessions share — must not build one on it.
func TestCloneLeavesLazyNameIndexUnbuilt(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, cloneTestNetwork(), [32]byte{}); err != nil {
		t.Fatal(err)
	}
	shared, _, err := ReadSnapshot(&buf, tech.NMOS4())
	if err != nil {
		t.Fatal(err)
	}
	if shared.names.Load() != nil {
		t.Fatal("a freshly decoded network already has a name index")
	}
	clone := shared.Clone()
	if n := clone.Lookup("s7"); n == nil || n != clone.Nodes[n.Index] || n.Name != "s7" {
		t.Fatalf("clone.Lookup(s7) = %v", n)
	}
	clone.Node("fresh")
	if shared.names.Load() != nil {
		t.Fatal("cloning and editing the clone built a name index on the shared network")
	}
	next := clone.Clone()
	if next.names.Load() == nil || next.Lookup("fresh") != next.Nodes[len(next.Nodes)-1] {
		t.Fatal("the clone's own index was not handed to its successor")
	}
}
