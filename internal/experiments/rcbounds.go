// Experiment E8: the Rubinstein–Penfield–Horowitz bounds versus the Elmore
// point estimate versus the analog reference, on randomized RC trees. This
// is the ablation for the distributed model's mathematical core.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analog"
	"repro/internal/rctree"
)

// RCBoundsRow is one random tree's outcome.
type RCBoundsRow struct {
	Nodes     int
	Leaf      string
	Analog    float64 // measured 50% crossing (s)
	Elmore    float64 // TDe
	Elmore50  float64 // ln2·TDe estimate of the 50% time
	Lower     float64 // RPH lower bound at v=0.5
	Upper     float64 // RPH upper bound at v=0.5
	Contained bool    // lower ≤ analog ≤ upper
}

// xorshift is the deterministic PRNG used for tree generation.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	s := (seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	s ^= s >> 31
	if s == 0 {
		s = 0x2545f4914f6cdd1d
	}
	x := xorshift(s)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// float returns a uniform value in [0,1).
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// RandomTree builds a random RC tree with n nodes (n ≥ 2): resistances in
// [1,10] kΩ, capacitances in [10,100] fF, random topology, deterministic
// in seed.
func RandomTree(n int, seed uint64) *rctree.Tree {
	if n < 2 {
		n = 2
	}
	rng := newXorshift(seed)
	t := rctree.New(10e-15+90e-15*rng.float(), "root")
	for i := 1; i < n; i++ {
		parent := int(rng.next() % uint64(i))
		r := 1e3 + 9e3*rng.float()
		c := 10e-15 + 90e-15*rng.float()
		t.Add(parent, r, c, fmt.Sprintf("n%d", i))
	}
	return t
}

// deepestLeaf returns the leaf with the largest Elmore delay.
func deepestLeaf(t *rctree.Tree) int {
	td := t.ElmoreAll()
	best, bestV := 0, -1.0
	for _, leaf := range t.Leaves() {
		if td[leaf] > bestV {
			best, bestV = leaf, td[leaf]
		}
	}
	return best
}

// AnalogTreeDelay simulates the tree with the analog engine (it is a pure
// linear network, so this is the engine's exactly-solvable regime) and
// returns the 50% crossing time at the given node under a unit step.
func AnalogTreeDelay(t *rctree.Tree, node int) (float64, error) {
	c := analog.NewCircuit()
	src := c.Node("src")
	c.AddVSource(src, 0, analog.Step(0, 1, 0))
	// Map tree nodes to analog nodes; the root hangs off the source
	// directly (the root's own resistance is zero by construction).
	ids := make([]int, t.Len())
	for i := 0; i < t.Len(); i++ {
		if i == 0 {
			ids[i] = src
		} else {
			ids[i] = c.Node(fmt.Sprintf("t%d", i))
		}
	}
	for i := 1; i < t.Len(); i++ {
		c.AddResistor(ids[t.Parent(i)], ids[i], t.R(i))
	}
	for i := 1; i < t.Len(); i++ {
		if t.C(i) > 0 {
			c.AddCapacitor(ids[i], 0, t.C(i), 0)
		}
	}
	// Simulation window from the global time constant.
	k := t.ConstantsAt(node)
	stop := 12 * math.Max(k.TP, 1e-12)
	res, err := c.Tran(analog.TranOpts{Stop: stop, Step: stop / 8000, Record: []int{ids[node]}})
	if err != nil {
		return 0, err
	}
	return res.Crossing(ids[node], 0.5, true, 0)
}

// E8RCBounds runs `trials` random trees of the given size and checks bound
// containment at the deepest leaf.
func E8RCBounds(nodes, trials int, seed uint64) ([]RCBoundsRow, error) {
	var rows []RCBoundsRow
	for i := 0; i < trials; i++ {
		t := RandomTree(nodes, seed+uint64(i)*1297)
		leaf := deepestLeaf(t)
		ref, err := AnalogTreeDelay(t, leaf)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		lo, hi := t.DelayBounds(leaf, 0.5)
		row := RCBoundsRow{
			Nodes:     t.Len(),
			Leaf:      t.Name(leaf),
			Analog:    ref,
			Elmore:    t.Elmore(leaf),
			Elmore50:  t.Delay50(leaf),
			Lower:     lo,
			Upper:     hi,
			Contained: lo <= ref*1.001 && ref <= hi*1.001,
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRCBounds renders E8 rows plus a summary: how many intervals
// contain the analog crossing, their mean width relative to it, and the
// mean relative error of the ln2·TDe point estimate.
func FormatRCBounds(title string, rows []RCBoundsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-6s %-8s %10s %10s %10s %10s %10s %6s\n",
		title, "nodes", "leaf", "analog", "elmore", "ln2·TDe", "lower", "upper", "in?")
	contained, width, estErr := 0, 0.0, 0.0
	for _, r := range rows {
		width += (r.Upper - r.Lower) / r.Analog
		estErr += math.Abs(r.Elmore50/r.Analog - 1)
		mark := "no"
		if r.Contained {
			mark = "yes"
			contained++
		}
		fmt.Fprintf(&b, "%-6d %-8s %9.2fns %9.2fns %9.2fns %9.2fns %9.2fns %6s\n",
			r.Nodes, r.Leaf, r.Analog*1e9, r.Elmore*1e9, r.Elmore50*1e9,
			r.Lower*1e9, r.Upper*1e9, mark)
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "containment: %d/%d\nmean relative width (upper-lower)/analog: %.2f\nmean |ln2·TDe error| vs analog: %.1f%%\n",
		contained, len(rows), width/n, 100*estErr/n)
	return b.String()
}
