package hier

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// TestDetectChipGrid: the replicated-tile chip yields one class holding
// every tile after the first, with identical boundaries (the literally
// shared opcode bus) and rank-consistent interiors. Tile 0 classes alone:
// the shared op nodes are created mid-way through its import, so they
// order differently against tile 0's interior indexes than against the
// later tiles' (the rankpos part of the fingerprint) — and queue-order
// ties genuinely could resolve differently there, so keeping it flat is
// correct, not conservative.
func TestDetectChipGrid(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.ChipGrid(p, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := Detect(nw)
	if len(plan.Instances) != 3 {
		t.Fatalf("selected %d outermost instances, want 3 tiles", len(plan.Instances))
	}
	for i, inst := range plan.Instances {
		if inst.Path != []string{"t0_", "t1_", "t2_"}[i] {
			t.Errorf("instance %d is %q, want tile stamp", i, inst.Path)
		}
		if len(inst.Interior) == 0 {
			t.Errorf("tile %q has no interior", inst.Path)
		}
	}
	if len(plan.Classes) != 2 || len(plan.Classes[0]) != 1 || len(plan.Classes[1]) != 2 {
		t.Fatalf("classes = %v, want [[t0] [t1 t2]]", plan.Classes)
	}
	if plan.Instances[1].Class != plan.Instances[2].Class {
		t.Errorf("tiles t1/t2 in different classes %d/%d",
			plan.Instances[1].Class, plan.Instances[2].Class)
	}
	instances, stampable := plan.Stats()
	if instances != 3 || stampable != 2 {
		t.Errorf("Stats() = (%d, %d), want (3, 2)", instances, stampable)
	}

	rep, m1 := &plan.Instances[1], &plan.Instances[2]
	if len(rep.Interior) != len(m1.Interior) || len(rep.Boundary) != len(m1.Boundary) {
		t.Fatalf("member shapes differ: interior %d/%d, boundary %d/%d",
			len(rep.Interior), len(m1.Interior), len(rep.Boundary), len(m1.Boundary))
	}
	// Boundaries are the same global nodes, and include the shared bus.
	onBoundary := map[string]bool{}
	for k, b := range rep.Boundary {
		if b != m1.Boundary[k] {
			t.Fatalf("boundary %d differs between members: %d vs %d", k, b, m1.Boundary[k])
		}
		n := nw.Nodes[b]
		if n.IsRail() {
			t.Errorf("rail %s on the boundary list", n.Name)
		}
		onBoundary[n.Name] = true
	}
	if !onBoundary["op0"] {
		t.Errorf("shared opcode bit op0 not on the tile boundary: %v", onBoundary)
	}
	// Interior ranks: ascending, owned, and Rank round-trips.
	for i := range plan.Instances {
		inst := &plan.Instances[i]
		prev := int32(-1)
		for r, idx := range inst.Interior {
			if idx <= prev {
				t.Fatalf("instance %d interior not ascending at rank %d", i, r)
			}
			prev = idx
			if got := plan.MemberOf[idx]; got != int32(i)+1 {
				t.Fatalf("MemberOf[%d] = %d, want %d", idx, got, i+1)
			}
			if got := plan.Rank(i, idx); got != int32(r) {
				t.Fatalf("Rank(%d, %d) = %d, want %d", i, idx, got, r)
			}
		}
		for _, b := range inst.Boundary {
			if plan.Rank(i, b) != -1 {
				t.Fatalf("boundary node %d reported interior", b)
			}
		}
		// Structurally corresponding ranks carry the same node kind.
		for r := range inst.Interior {
			if nw.Nodes[inst.Interior[r]].Kind != nw.Nodes[rep.Interior[r]].Kind {
				t.Fatalf("rank %d kind differs between tile %d and the representative", r, i)
			}
		}
	}
	// Covering: range membership in trans-index space.
	for i, inst := range plan.Instances {
		if got := plan.Covering(inst.TransLo); got != i {
			t.Errorf("Covering(%d) = %d, want %d", inst.TransLo, got, i)
		}
		if got := plan.Covering(inst.TransHi - 1); got != i {
			t.Errorf("Covering(%d) = %d, want %d", inst.TransHi-1, got, i)
		}
	}
	if plan.Covering(-1) != -1 {
		t.Error("Covering(-1) should be -1")
	}
	if first := plan.Instances[0].TransLo; first > 0 && plan.Covering(first-1) != -1 {
		t.Error("Covering before the first range should be -1")
	}
}

// TestRankForeignNodes: a node interior to one instance has no rank in any
// other, and a node the plan never saw (an edit appended it) has none at all.
func TestRankForeignNodes(t *testing.T) {
	nw, err := gen.ChipGrid(tech.NMOS4(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := Detect(nw)
	for i := range plan.Instances {
		for j := range plan.Instances {
			for r, idx := range plan.Instances[j].Interior {
				want := int32(-1)
				if i == j {
					want = int32(r)
				}
				if got := plan.Rank(i, idx); got != want {
					t.Fatalf("Rank(%d, %d) = %d, want %d", i, idx, got, want)
				}
			}
		}
		if got := plan.Rank(i, int32(len(nw.Nodes))); got != -1 {
			t.Errorf("Rank(%d, past the plan) = %d", i, got)
		}
	}
}

// TestDetectNoAnnotations: a network without instance records yields an
// empty (but non-nil) plan.
func TestDetectNoAnnotations(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.RippleAdder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := Detect(nw)
	if plan == nil {
		t.Fatal("Detect returned nil")
	}
	if len(plan.Instances) != 0 || len(plan.Classes) != 0 {
		t.Fatalf("expected empty plan, got %d instances", len(plan.Instances))
	}
	instances, stampable := plan.Stats()
	if instances != 0 || stampable != 0 {
		t.Errorf("Stats() = (%d, %d), want (0, 0)", instances, stampable)
	}
	for i, m := range plan.MemberOf {
		if m != 0 {
			t.Fatalf("MemberOf[%d] = %d in an unannotated network", i, m)
		}
	}
}

// TestDetectMalformedRanges: corrupt annotations are dropped, nested ones
// fold into their enclosing stamp, and detection still finds the tiles.
func TestDetectMalformedRanges(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.ChipGrid(p, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw.Instances = append(nw.Instances,
		netlist.Instance{Path: "bad1_", TransLo: -5, TransHi: 10},
		netlist.Instance{Path: "bad2_", TransLo: 10, TransHi: 10},
		netlist.Instance{Path: "bad3_", TransLo: 20, TransHi: 10},
		netlist.Instance{Path: "bad4_", TransLo: 0, TransHi: len(nw.Trans) + 1},
	)
	plan := Detect(nw)
	if len(plan.Instances) != 3 {
		t.Fatalf("selected %d instances with corrupt annotations present, want 3", len(plan.Instances))
	}
	for _, inst := range plan.Instances {
		if strings.HasPrefix(inst.Path, "bad") {
			t.Errorf("malformed annotation %q selected", inst.Path)
		}
	}
}

// buildCell appends one two-device inverter cell (depletion load plus
// enhancement pulldown gated by en) and returns its instance annotation.
func buildCell(nw *netlist.Network, name string, en *netlist.Node, w float64) netlist.Instance {
	lo := len(nw.Trans)
	out := nw.Node(name + "out")
	nw.AddTrans(tech.NDep, out, out, nw.Vdd(), 2e-6, 8e-6)
	nw.AddTrans(tech.NEnh, en, out, nw.GND(), w, 2e-6)
	return netlist.Instance{Path: name, TransLo: lo, TransHi: len(nw.Trans)}
}

// TestClassSeparation: identical cells on the same select line class
// together; a cell on a different select line or with different geometry
// gets its own class (the boundary and the structure are both part of
// stamp equivalence).
func TestClassSeparation(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("cells", p)
	en1, en2 := nw.Node("en1"), nw.Node("en2")
	nw.MarkInput(en1)
	nw.MarkInput(en2)
	nw.Instances = append(nw.Instances,
		buildCell(nw, "u0_", en1, 4e-6),
		buildCell(nw, "u1_", en1, 4e-6),
		buildCell(nw, "u2_", en2, 4e-6),
		buildCell(nw, "u3_", en1, 8e-6),
	)
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	plan := Detect(nw)
	if len(plan.Instances) != 4 {
		t.Fatalf("selected %d instances, want 4", len(plan.Instances))
	}
	c := func(i int) int { return plan.Instances[i].Class }
	if c(0) != c(1) {
		t.Errorf("identical cells u0/u1 in different classes %d/%d", c(0), c(1))
	}
	if c(2) == c(0) {
		t.Error("u2 (different select line) classed with u0")
	}
	if c(3) == c(0) {
		t.Error("u3 (different geometry) classed with u0")
	}
	instances, stampable := plan.Stats()
	if instances != 4 || stampable != 2 {
		t.Errorf("Stats() = (%d, %d), want (4, 2)", instances, stampable)
	}
}

// TestEligibility: a channel reaching a non-source boundary node makes the
// instance flat-only, as does an instance with no interior at all.
func TestEligibility(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("elig", p)
	in := nw.Node("in")
	nw.MarkInput(in)
	mid := nw.Node("mid")

	// u0_: inner node a1, but a pass device hangs its channel on mid,
	// which is also used outside the instance (and is not a source).
	lo := len(nw.Trans)
	a1 := nw.Node("a1")
	nw.AddTrans(tech.NDep, a1, a1, nw.Vdd(), 2e-6, 8e-6)
	nw.AddTrans(tech.NEnh, in, a1, nw.GND(), 4e-6, 2e-6)
	nw.AddTrans(tech.NEnh, in, a1, mid, 4e-6, 2e-6)
	nw.Instances = append(nw.Instances, netlist.Instance{Path: "u0_", TransLo: lo, TransHi: len(nw.Trans)})

	// u1_: a single device whose every node is seen elsewhere — interior
	// empty.
	lo = len(nw.Trans)
	nw.AddTrans(tech.NEnh, mid, in, nw.GND(), 4e-6, 2e-6)
	nw.Instances = append(nw.Instances, netlist.Instance{Path: "u1_", TransLo: lo, TransHi: len(nw.Trans)})

	// Outside references keeping mid and in exterior.
	out := nw.Node("zout")
	nw.AddTrans(tech.NEnh, mid, out, nw.GND(), 4e-6, 2e-6)
	nw.AddTrans(tech.NDep, out, out, nw.Vdd(), 2e-6, 8e-6)

	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	plan := Detect(nw)
	if len(plan.Instances) != 2 {
		t.Fatalf("selected %d instances, want 2", len(plan.Instances))
	}
	u0 := plan.Instances[0]
	if u0.Class != -1 || !strings.Contains(u0.Reason, "channel crosses the boundary") {
		t.Errorf("u0_: class %d, reason %q; want flat with a boundary-crossing reason", u0.Class, u0.Reason)
	}
	if !strings.Contains(u0.Reason, "mid") {
		t.Errorf("u0_ reason %q does not name the crossing node", u0.Reason)
	}
	u1 := plan.Instances[1]
	if u1.Class != -1 || !strings.Contains(u1.Reason, "no interior") {
		t.Errorf("u1_: class %d, reason %q; want flat with no-interior reason", u1.Class, u1.Reason)
	}
}
