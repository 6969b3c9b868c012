package switchsim

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// fuzzCircuit mirrors the incremental differential fuzzer's six circuit
// families (internal/incremental): distinct stage shapes — static ratioed
// gates, charge-sharing pass chains, precharged bus, wide fan-in decode,
// carry chains — so the fuzzer exercises every lattice mechanism, not just
// driven logic. A seventh, the composed chip, is large enough that a
// sweep after the first re-resolves a small part of the network.
func fuzzCircuit(sel byte) (*netlist.Network, error) {
	p := tech.NMOS4()
	switch sel % 7 {
	case 0:
		return gen.InverterChain(p, 6, 2)
	case 1:
		return gen.PassChain(p, 5)
	case 2:
		return gen.RippleAdder(p, 2)
	case 3:
		return gen.Decoder(p, 2)
	case 4:
		return gen.PrechargedBus(p, 3)
	case 5:
		return gen.ALU(p, 2)
	default:
		return gen.Chip(p, 4)
	}
}

// fuzzVectors decodes fuzz bytes into vectors over ni inputs: one symbol
// per byte (0/1/X with X underweighted, matching randomVectors), the tail
// padded with released inputs, capped past one 64-lane slab so boundary
// crossings stay in scope.
func fuzzVectors(data []byte, ni int) []Value {
	const maxVectors = 80 // > Lanes: keeps multi-slab runs reachable
	k := (len(data) + ni - 1) / ni
	if k > maxVectors {
		k = maxVectors
	}
	vecs := make([]Value, k*ni)
	for i := range vecs {
		vecs[i] = VX
		if i < len(data) {
			switch data[i] % 5 {
			case 0, 1:
				vecs[i] = V0
			case 2, 3:
				vecs[i] = V1
			}
		}
	}
	return vecs
}

// FuzzBatchSim is the batch/scalar differential fuzzer: every decoded
// vector batch must settle bit-identically — per vector, per node,
// including the oscillation flag — between the vectorized engine and a
// fresh reference resolver per vector (reference_test.go).
func FuzzBatchSim(f *testing.F) {
	// Precharged bus: precharge-vs-pulldown fights and K2 storage.
	f.Add([]byte{4, 2, 0, 4, 1, 3, 2, 2, 4, 0, 0, 1, 4, 4, 3})
	// Charge sharing: pass chain with released (X) gate and data symbols.
	f.Add([]byte{1, 3, 4, 0, 4, 2, 1, 4, 4, 0, 3, 4, 1, 2, 4, 4})
	// Ratioed nMOS: inverter chain, driven and floating inputs.
	f.Add([]byte{0, 2, 3, 4, 0, 1, 2, 3, 4, 0})
	// Carry chain and wide decode, multi-vector batches.
	f.Add([]byte{2, 1, 2, 3, 0, 2, 1, 0, 3, 2, 1, 0, 0, 2, 3, 1, 2, 0})
	f.Add([]byte{3, 0, 2, 2, 3, 1, 4, 0, 2, 3, 1})
	// ALU plus a long tail: crosses the 64-lane slab boundary.
	f.Add(append([]byte{5}, bytes.Repeat([]byte{2, 0, 3, 1, 4, 2, 0, 3}, 90)...))
	// Composed chip: later sweeps touch a few blocks of a 630-node network.
	f.Add(append([]byte{6}, bytes.Repeat([]byte{1, 3, 0, 2, 2, 4, 0}, 30)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nw, err := fuzzCircuit(data[0])
		if err != nil {
			t.Fatalf("circuit: %v", err)
		}
		ni := len(nw.Inputs())
		if ni == 0 {
			t.Fatalf("fuzz circuit has no inputs")
		}
		checkBatchIdentity(t, nw, fuzzVectors(data[1:], ni))
	})
}
