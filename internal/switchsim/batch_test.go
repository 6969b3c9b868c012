package switchsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// scalarSettle settles one vector on a fresh reference resolver — the
// batch engine's per-lane semantics by definition — and returns it with
// Settle's sweep count.
func scalarSettle(nw *netlist.Network, inputs []*netlist.Node, vec []Value) (*refSim, int) {
	s := newRef(nw)
	for i, in := range inputs {
		if vec[i] != VX {
			if err := s.SetInput(in, vec[i]); err != nil {
				panic(err)
			}
		}
	}
	return s, s.Settle()
}

// randomVectors draws k vectors over ni inputs with a sprinkling of X
// (released) symbols.
func randomVectors(rng *rand.Rand, ni, k int) []Value {
	vecs := make([]Value, ni*k)
	for i := range vecs {
		switch r := rng.Intn(10); {
		case r < 4:
			vecs[i] = V0
		case r < 8:
			vecs[i] = V1
		default:
			vecs[i] = VX
		}
	}
	return vecs
}

// checkBatchIdentity runs vecs through the batch engine and a fresh
// reference resolver per vector and requires per-vector per-node identity,
// including the oscillation flag. It also requires the batch's sweep
// count: a slab sweeps until its slowest lane is stable, so each slab
// counts the most sweeps the reference's Settle takes over its vectors — and over an
// all-released vector, which the unused lanes of a partial last slab run.
func checkBatchIdentity(t *testing.T, nw *netlist.Network, vecs []Value) {
	t.Helper()
	b := NewBatch(nw)
	inputs := b.Inputs()
	res, err := b.Run(vecs, nil)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	ni := len(inputs)
	released := make([]Value, ni)
	for i := range released {
		released[i] = VX
	}
	_, padSweeps := scalarSettle(nw, inputs, released)
	wantSweeps, slabSweeps := 0, 0
	for v := 0; v < res.Vectors; v++ {
		row := vecs[v*ni : (v+1)*ni]
		s, sweeps := scalarSettle(nw, inputs, row)
		want, wantOsc := s.Snapshot(), s.Oscillated()
		got := res.Out[v]
		if len(got) != len(want) {
			t.Fatalf("vector %d: %d values, want %d", v, len(got), len(want))
		}
		for n := range want {
			if got[n] != want[n] {
				t.Errorf("vector %d (%v): node %s = %s, scalar reference %s",
					v, row, nw.Nodes[n].Name, got[n], want[n])
			}
		}
		if res.Osc[v] != wantOsc {
			t.Errorf("vector %d (%v): oscillated=%v, scalar reference %v", v, row, res.Osc[v], wantOsc)
		}
		slabSweeps = max(slabSweeps, sweeps)
		switch {
		case v == res.Vectors-1 && (v+1)%Lanes != 0:
			slabSweeps = max(slabSweeps, padSweeps)
			fallthrough
		case v%Lanes == Lanes-1:
			wantSweeps += slabSweeps
			slabSweeps = 0
		}
	}
	if res.Sweeps != wantSweeps {
		t.Errorf("%d vectors: %d sweeps, scalar reference %d", res.Vectors, res.Sweeps, wantSweeps)
	}
}

// TestBatchMatchesScalar pins the batch engine bit-identical to the
// scalar reference over every generator family used by the conformance
// sweep, on deterministic pseudo-random vector batches that cross a slab
// boundary (> 64 vectors) and include released (X) symbols.
func TestBatchMatchesScalar(t *testing.T) {
	p := tech.NMOS4()
	specs := []string{
		"invchain:8", "fanout:6", "passchain:6", "superbuffer", "bus:4",
		"ripple:4", "manchester:4", "barrel:4", "decoder:3", "alu:4",
		"regfile:4,4", "polywire:6", "chip:4", "datapath:4", "shiftreg:4",
		"arraymul:4", "carrysel:8", "pla:4,6,4",
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatalf("gen.Build(%q): %v", spec, err)
			}
			ni := len(nw.Inputs())
			if ni == 0 {
				t.Skipf("%s has no inputs", spec)
			}
			rng := rand.New(rand.NewSource(42))
			k := 70 // crosses the 64-lane slab boundary
			checkBatchIdentity(t, nw, randomVectors(rng, ni, k))
		})
	}
}

// TestBatchExhaustiveSmall exhaustively sweeps all 3^ni ternary vectors of
// a few small networks against the scalar reference — every corner of the
// lattice, not just sampled ones.
func TestBatchExhaustiveSmall(t *testing.T) {
	p := tech.NMOS4()
	for _, spec := range []string{"passchain:3", "bus:2", "superbuffer", "decoder:2"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatalf("gen.Build(%q): %v", spec, err)
			}
			ni := len(nw.Inputs())
			if ni == 0 || ni > 8 {
				t.Skipf("%s has %d inputs", spec, ni)
			}
			total := 1
			for i := 0; i < ni; i++ {
				total *= 3
			}
			vecs := make([]Value, 0, total*ni)
			for code := 0; code < total; code++ {
				c := code
				for i := 0; i < ni; i++ {
					vecs = append(vecs, Value(c%3))
					c /= 3
				}
			}
			checkBatchIdentity(t, nw, vecs)
		})
	}
}

// TestBatchRunErrors covers the argument-shape failure modes.
func TestBatchRunErrors(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Build("ripple:2", p)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(nw)
	if len(b.Inputs()) < 2 {
		t.Fatalf("ripple:2 has %d inputs, want >= 2", len(b.Inputs()))
	}
	if _, err := b.Run(make([]Value, len(b.Inputs())+1), nil); err == nil {
		t.Error("ragged vector batch: want error")
	}
	empty := netlist.New("empty", p)
	if _, err := NewBatch(empty).Run(nil, nil); err == nil {
		t.Error("no-input network: want error")
	}
}

// TestBatchWatchList checks that a watch list narrows and orders the
// reported values.
func TestBatchWatchList(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Build("invchain:2", p)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(nw)
	outs := nw.Outputs()
	if len(outs) == 0 {
		t.Fatal("invchain has no outputs")
	}
	res, err := b.Run([]Value{V0, V1}, outs)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < res.Vectors; v++ {
		if len(res.Out[v]) != len(outs) {
			t.Fatalf("vector %d: %d watched values, want %d", v, len(res.Out[v]), len(outs))
		}
		s := New(nw)
		s.SetInput(b.Inputs()[0], Value(v))
		s.Settle()
		for i, o := range outs {
			if res.Out[v][i] != s.Value(o) {
				t.Errorf("vector %d: %s = %s, want %s", v, o.Name, res.Out[v][i], s.Value(o))
			}
		}
	}
}

// TestParseVector covers the vector-row parser.
func TestParseVector(t *testing.T) {
	got, err := ParseVector(" 0 1\tX", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{V0, V1, VX}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ParseVector = %v, want %v", got, want)
	}
	if _, err := ParseVector("012", 3); err == nil {
		t.Error("bad symbol: want error")
	}
	if _, err := ParseVector("01", 3); err == nil {
		t.Error("short row: want error")
	}
}
