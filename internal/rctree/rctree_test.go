package rctree

import (
	"math"
	"testing"
	"testing/quick"
)

// chain builds a uniform n-section RC ladder.
func chain(n int, r, c float64) *Tree {
	t := New(0, "root")
	parent := 0
	for i := 0; i < n; i++ {
		parent = t.Add(parent, r, c, "")
	}
	return t
}

func TestSingleLumpExact(t *testing.T) {
	tr := New(0, "root")
	leaf := tr.Add(0, 1e3, 1e-12, "leaf")
	k := tr.ConstantsAt(leaf)
	tau := 1e-9
	for name, got := range map[string]float64{"TP": k.TP, "TDe": k.TDe, "TRe": k.TRe} {
		if math.Abs(got-tau) > 1e-18 {
			t.Errorf("%s = %g, want %g", name, got, tau)
		}
	}
	lo, hi := tr.DelayBounds(leaf, 0.5)
	want := tau * math.Ln2
	if math.Abs(lo-want) > 1e-15 || math.Abs(hi-want) > 1e-15 {
		t.Errorf("bounds [%g, %g], want both %g (single pole is exact)", lo, hi, want)
	}
}

func TestTwoSectionLadderConstants(t *testing.T) {
	// R=R, C=C per section: TDe = 3RC, TP = 3RC, TRe = 2.5RC at the end.
	tr := chain(2, 1e3, 1e-12)
	k := tr.ConstantsAt(2)
	rc := 1e-9
	if math.Abs(k.TDe-3*rc) > 1e-15 {
		t.Errorf("TDe = %g, want %g", k.TDe, 3*rc)
	}
	if math.Abs(k.TP-3*rc) > 1e-15 {
		t.Errorf("TP = %g, want %g", k.TP, 3*rc)
	}
	if math.Abs(k.TRe-2.5*rc) > 1e-15 {
		t.Errorf("TRe = %g, want %g", k.TRe, 2.5*rc)
	}
}

func TestBranchingTreeElmore(t *testing.T) {
	// root -R1- a(C1); a -R2- b(C2); a -R3- c(C3). Elmore at b must see
	// C3 only through the shared R1.
	tr := New(0, "root")
	a := tr.Add(0, 1e3, 1e-12, "a")
	b := tr.Add(a, 2e3, 2e-12, "b")
	tr.Add(a, 3e3, 3e-12, "c")
	want := 1e3*(1e-12+2e-12+3e-12) + 2e3*2e-12
	if got := tr.Elmore(b); math.Abs(got-want) > 1e-18 {
		t.Errorf("Elmore(b) = %g, want %g", got, want)
	}
}

func TestElmoreAllMatchesElmore(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		tr := randomTree(seed, 20)
		all := tr.ElmoreAll()
		for i := 0; i < tr.Len(); i++ {
			if math.Abs(all[i]-tr.Elmore(i)) > 1e-9*math.Abs(all[i])+1e-18 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// randomTree builds a deterministic pseudo-random tree from a seed.
func randomTree(seed int64, n int) *Tree {
	s := uint64(seed)*2654435761 + 12345
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	f := func() float64 { return float64(next()>>11) / float64(1<<53) }
	tr := New(10e-15+f()*90e-15, "root")
	for i := 1; i < n; i++ {
		parent := int(next() % uint64(i))
		tr.Add(parent, 1e3+9e3*f(), 10e-15+90e-15*f(), "")
	}
	return tr
}

func TestConstantsOrderingProperty(t *testing.T) {
	// RPH: TRe ≤ TDe ≤ TP for every node of every tree.
	err := quick.Check(func(seed int64) bool {
		tr := randomTree(seed, 25)
		for e := 1; e < tr.Len(); e++ {
			k := tr.ConstantsAt(e)
			tol := 1e-12 * k.TP
			if k.TRe > k.TDe+tol || k.TDe > k.TP+tol {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestBoundsOrderingProperty(t *testing.T) {
	// lower ≤ Elmore-based estimate ≤ upper at v = 1-1/e, where the
	// single-pole estimate is exactly TDe.
	v := 1 - 1/math.E
	err := quick.Check(func(seed int64) bool {
		tr := randomTree(seed, 15)
		for _, leaf := range tr.Leaves() {
			if leaf == 0 {
				continue
			}
			lo, hi := tr.DelayBounds(leaf, v)
			if lo > hi {
				return false
			}
			if lo < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestElmoreMonotoneInCap(t *testing.T) {
	// Adding capacitance anywhere never decreases any Elmore delay.
	err := quick.Check(func(seed int64, at uint8) bool {
		tr := randomTree(seed, 12)
		before := tr.ElmoreAll()
		tr.AddCap(int(at)%tr.Len(), 50e-15)
		after := tr.ElmoreAll()
		for i := range before {
			if after[i] < before[i]-1e-18 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	tr := New(1e-12, "root")
	if err := tr.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	empty := New(0, "root")
	if err := empty.Validate(); err == nil {
		t.Error("capacitance-free tree should be invalid")
	}
	neg := New(1e-12, "root")
	neg.Add(0, 1e3, 1e-12, "a")
	neg.c[1] = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative capacitance should be invalid")
	}
}

func TestAddPanicsOnBadParent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with out-of-range parent should panic")
		}
	}()
	New(0, "root").Add(5, 1, 1, "x")
}

func TestDelayBoundsPanicsOnBadThreshold(t *testing.T) {
	tr := chain(2, 1e3, 1e-12)
	defer func() {
		if recover() == nil {
			t.Error("DelayBounds(v=1) should panic")
		}
	}()
	tr.DelayBounds(1, 1)
}

func TestLeavesAndPaths(t *testing.T) {
	tr := New(0, "root")
	a := tr.Add(0, 1e3, 1e-12, "a")
	b := tr.Add(a, 1e3, 1e-12, "b")
	c := tr.Add(a, 1e3, 1e-12, "c")
	leaves := tr.Leaves()
	if len(leaves) != 2 || leaves[0] != b || leaves[1] != c {
		t.Errorf("leaves = %v, want [%d %d]", leaves, b, c)
	}
	if got := tr.PathR(b); math.Abs(got-2e3) > 1e-9 {
		t.Errorf("PathR(b) = %g, want 2000", got)
	}
	if tr.TotalCap() <= 0 {
		t.Errorf("total cap %g, want positive", tr.TotalCap())
	}
}

func TestStringRendering(t *testing.T) {
	tr := chain(2, 1e3, 1e-12)
	if s := tr.String(); len(s) == 0 {
		t.Error("String should render something")
	}
}
