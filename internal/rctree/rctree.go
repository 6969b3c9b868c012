// Package rctree analyzes RC tree networks: trees of resistors rooted at a
// voltage source, with capacitance to ground at every node. This is the
// mathematical core of the paper's distributed ("RC") delay model: a stage
// of conducting transistors driving a fan-out of capacitive nodes is an RC
// tree, and its delay is estimated from the Elmore time constant with
// Rubinstein–Penfield–Horowitz (RPH) bounds available as a certificate.
//
// Definitions (following RPH, "Signal Delay in RC Tree Networks"):
//
//	Rkk — total resistance on the unique path from the root to node k.
//	Rke — resistance of the portion of the root→k path shared with the
//	      root→e path.
//	TP  = Σk Rkk·Ck  (a global time constant, independent of e)
//	TDe = Σk Rke·Ck  (the Elmore delay of node e)
//	TRe = Σk Rke²/Ree·Ck
//
// with TRe ≤ TDe ≤ TP always. The step response at e is bounded by
// exponentials in these constants, giving rigorous lower and upper bounds
// on the time to cross any threshold.
package rctree

import (
	"errors"
	"fmt"
	"math"
)

// Tree is an RC tree. Node 0 is the root: the point where the (ideal)
// step source connects through the first resistor. The root itself may
// carry capacitance (it usually represents the driver's output diffusion).
type Tree struct {
	parent []int     // parent[i] is the parent index, -1 for root
	r      []float64 // r[i] is resistance from parent[i] to i; r[0] unused (0)
	c      []float64 // c[i] is capacitance at node i
	name   []string  // optional labels for reports
	order  []int     // topological order (parents first), rebuilt lazily
	dirty  bool
}

// New returns a tree containing only the root with capacitance c0.
func New(c0 float64, name string) *Tree {
	return &Tree{
		parent: []int{-1},
		r:      []float64{0},
		c:      []float64{c0},
		name:   []string{name},
		dirty:  true,
	}
}

// Reset reinitializes the tree in place to a root-only tree with
// capacitance c0, retaining the backing arrays so a caller evaluating many
// trees of similar size (delay-model stages, randomized-tree sweeps) can
// reuse one Tree as a scratch buffer instead of allocating per evaluation.
func (t *Tree) Reset(c0 float64, name string) {
	t.parent = append(t.parent[:0], -1)
	t.r = append(t.r[:0], 0)
	t.c = append(t.c[:0], c0)
	t.name = append(t.name[:0], name)
	t.order = t.order[:0]
	t.dirty = true
}

// Add appends a node connected to parent through resistance r, carrying
// capacitance c, and returns its index. It panics on an invalid parent —
// tree construction errors are programming errors, not data errors.
func (t *Tree) Add(parent int, r, c float64, name string) int {
	if parent < 0 || parent >= len(t.parent) {
		panic(fmt.Sprintf("rctree: parent %d out of range [0,%d)", parent, len(t.parent)))
	}
	t.parent = append(t.parent, parent)
	t.r = append(t.r, r)
	t.c = append(t.c, c)
	t.name = append(t.name, name)
	t.dirty = true
	return len(t.parent) - 1
}

// Len returns the number of nodes including the root.
func (t *Tree) Len() int { return len(t.parent) }

// Name returns the label of node i.
func (t *Tree) Name(i int) string { return t.name[i] }

// C returns the capacitance at node i.
func (t *Tree) C(i int) float64 { return t.c[i] }

// R returns the resistance between node i and its parent.
func (t *Tree) R(i int) float64 { return t.r[i] }

// Parent returns the parent index of node i (-1 for the root).
func (t *Tree) Parent(i int) int { return t.parent[i] }

// AddCap adds extra capacitance to an existing node.
func (t *Tree) AddCap(i int, c float64) { t.c[i] += c }

// Validate checks that resistances (except the root's) are positive and
// capacitances non-negative, with at least some capacitance in the tree.
func (t *Tree) Validate() error {
	total := 0.0
	for i := range t.parent {
		if i > 0 && t.r[i] <= 0 {
			return fmt.Errorf("rctree: node %d (%s) has non-positive resistance %g", i, t.name[i], t.r[i])
		}
		if t.c[i] < 0 {
			return fmt.Errorf("rctree: node %d (%s) has negative capacitance %g", i, t.name[i], t.c[i])
		}
		total += t.c[i]
	}
	if total <= 0 {
		return errors.New("rctree: tree has no capacitance")
	}
	return nil
}

// TotalCap returns the sum of all node capacitances.
func (t *Tree) TotalCap() float64 {
	s := 0.0
	for _, c := range t.c {
		s += c
	}
	return s
}

// PathR returns Rkk: total resistance from the root to node k.
func (t *Tree) PathR(k int) float64 {
	s := 0.0
	for i := k; i > 0; i = t.parent[i] {
		s += t.r[i]
	}
	return s
}

// path returns the set of nodes on the root→e path as a map from node
// index to cumulative resistance root→node.
func (t *Tree) path(e int) map[int]float64 {
	// Collect path indices root..e, then accumulate forward.
	var idx []int
	for i := e; i != -1; i = t.parent[i] {
		idx = append(idx, i)
	}
	m := make(map[int]float64, len(idx))
	acc := 0.0
	for j := len(idx) - 1; j >= 0; j-- {
		i := idx[j]
		acc += t.r[i] // r[root] is 0
		m[i] = acc
	}
	return m
}

// Constants bundles the three RPH time constants for a node.
type Constants struct {
	TP  float64 // Σ Rkk·Ck — global
	TDe float64 // Σ Rke·Ck — the Elmore delay of e
	TRe float64 // Σ Rke²/Ree·Ck
}

// ConstantsAt computes TP, TDe and TRe for node e in O(n·depth) time.
func (t *Tree) ConstantsAt(e int) Constants {
	onPath := t.path(e)
	ree := onPath[e]
	var k Constants
	for i := range t.parent {
		rkk := t.PathR(i)
		rke := 0.0
		for j := i; j != -1; j = t.parent[j] {
			if r, ok := onPath[j]; ok {
				rke = r
				break
			}
		}
		k.TP += rkk * t.c[i]
		k.TDe += rke * t.c[i]
		if ree > 0 {
			k.TRe += rke * rke / ree * t.c[i]
		}
	}
	if ree == 0 {
		// e is the root: its own delay is zero, and the exponential
		// bounds degenerate. Represent with TDe=TRe=0.
		k.TDe, k.TRe = 0, 0
	}
	return k
}

// Elmore returns the Elmore delay TDe of node e: the first moment of the
// impulse response, and the workhorse point estimate of the distributed
// delay model.
func (t *Tree) Elmore(e int) float64 {
	return t.ConstantsAt(e).TDe
}

// ElmoreAll returns the Elmore delay of every node in O(n) time using two
// tree passes: a downstream-capacitance accumulation and a root-to-leaf
// prefix sum of r·Cdown. Exactly equal (up to rounding) to calling Elmore
// on each node, but linear.
func (t *Tree) ElmoreAll() []float64 {
	n := len(t.parent)
	t.ensureOrder()
	cdown := make([]float64, n)
	copy(cdown, t.c)
	// Leaves-to-root accumulation of downstream capacitance.
	for i := n - 1; i >= 1; i-- {
		k := t.order[i]
		cdown[t.parent[k]] += cdown[k]
	}
	td := make([]float64, n)
	for i := 1; i < n; i++ {
		k := t.order[i]
		td[k] = td[t.parent[k]] + t.r[k]*cdown[k]
	}
	return td
}

// ensureOrder rebuilds the parents-first traversal order if needed.
func (t *Tree) ensureOrder() {
	if !t.dirty && len(t.order) == len(t.parent) {
		return
	}
	n := len(t.parent)
	t.order = make([]int, 0, n)
	// Nodes are appended with parents existing first, so index order is
	// already topological: parent[i] < i holds for every Add.
	for i := 0; i < n; i++ {
		t.order = append(t.order, i)
	}
	t.dirty = false
}

// DelayBounds returns rigorous lower and upper bounds on the time at
// which node e crosses the fraction v (0 < v < 1) of its final value
// under a unit step applied at the root at time zero. The bounds are the
// exponential forms of RPH:
//
//	lower: t ≥ TP·ln(TDe / (TP·(1−v)))            (clamped at 0)
//	upper: t ≤ TDe − TRe + TRe·ln(1/(1−v))
//
// Both collapse to the exact single-pole answer RC·ln(1/(1−v)) when the
// tree is a single lump. For the root node both bounds are zero.
func (t *Tree) DelayBounds(e int, v float64) (lo, hi float64) {
	if v <= 0 || v >= 1 {
		panic(fmt.Sprintf("rctree: threshold %g outside (0,1)", v))
	}
	k := t.ConstantsAt(e)
	if k.TDe == 0 {
		return 0, 0
	}
	lo = k.TP * math.Log(k.TDe/(k.TP*(1-v)))
	if lo < 0 {
		lo = 0
	}
	hi = k.TDe - k.TRe + k.TRe*math.Log(1/(1-v))
	if hi < lo {
		// Numerically the forms can cross by rounding when the tree is
		// nearly a single lump; collapse to the midpoint.
		mid := (hi + lo) / 2
		lo, hi = mid, mid
	}
	return lo, hi
}

// Delay50 returns the Elmore-based estimate of the 50% crossing time,
// ln2·TDe, which is exact for a single pole and within the RPH bounds in
// general.
func (t *Tree) Delay50(e int) float64 {
	return math.Ln2 * t.Elmore(e)
}

// Leaves returns the indices of all childless nodes.
func (t *Tree) Leaves() []int {
	n := len(t.parent)
	hasChild := make([]bool, n)
	for i := 1; i < n; i++ {
		hasChild[t.parent[i]] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if !hasChild[i] {
			out = append(out, i)
		}
	}
	return out
}

// String renders the tree for diagnostics: one line per node.
func (t *Tree) String() string {
	s := ""
	for i := range t.parent {
		s += fmt.Sprintf("%3d %-12s parent=%-3d R=%-10.4g C=%.4g\n",
			i, t.name[i], t.parent[i], t.r[i], t.c[i])
	}
	return s
}
