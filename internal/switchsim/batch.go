package switchsim

// The vectorized front on the kernel (kernel.go): 64 input vectors at a
// time, one per lane of a uint64 word. Every vector starts from power-on
// state (rails driven, definite vector symbols driven at Ω, X symbols
// released, everything else X charge) and settles independently; per lane,
// the result is bit-identical to a fresh one-state settle of that vector.

import (
	"fmt"

	"repro/internal/netlist"
)

// Lanes is the vector batch width: one bit lane per vector in a slab.
const Lanes = 64

// Batch is a compiled vectorized simulator bound to one network. Compile
// once with NewBatch, then stream any number of vector batches through
// Run; slab state is reused across calls.
type Batch struct {
	k      kernel[uint64]
	inputs []*netlist.Node
}

// BatchResult is the outcome of one Run.
type BatchResult struct {
	// Vectors is the number of vectors simulated.
	Vectors int
	// Sweeps is the total settle sweep count across all slabs.
	Sweeps int
	// Out holds, per vector, the settled values of the watched nodes.
	Out [][]Value
	// Osc flags vectors where some node failed to stabilize and was
	// forced to X.
	Osc []bool
}

// NewBatch compiles nw for vectorized simulation.
func NewBatch(nw *netlist.Network) *Batch {
	return &Batch{k: newKernel[uint64](nw, netlist.Compile(nw)), inputs: nw.Inputs()}
}

// Inputs returns the input nodes the vector columns map to, in node index
// order.
func (b *Batch) Inputs() []*netlist.Node { return b.inputs }

// Columns maps the columns of a vector source onto the engine's input
// columns (Inputs() order). Build with Batch.Columns.
type Columns struct {
	// Names are the mapped inputs, in vector column order.
	Names []string
	ni    int   // engine input columns
	cols  []int // vector column -> engine input column
}

// Columns maps vector columns onto the named inputs, in order; with no
// names every input maps, in Inputs() order. An input no column names
// stays released in every row.
func (b *Batch) Columns(names []string) (*Columns, error) {
	c := &Columns{Names: names, ni: len(b.inputs)}
	colOf := make(map[string]int, len(b.inputs))
	for i, n := range b.inputs {
		colOf[n.Name] = i
		if len(names) == 0 {
			c.Names = append(c.Names, n.Name)
		}
	}
	for _, name := range c.Names {
		i, ok := colOf[name]
		if !ok {
			return nil, fmt.Errorf("%q is not an input node", name)
		}
		c.cols = append(c.cols, i)
	}
	return c, nil
}

// AppendRow parses one vector row (see ParseVector) and appends it to vecs
// as a full-width Run vector, unmapped inputs released. echo is the row's
// symbols in canonical form ("0", "1", "X", no blanks).
func (c *Columns) AppendRow(vecs []Value, row string) (_ []Value, echo string, err error) {
	vals, err := ParseVector(row, len(c.cols))
	if err != nil {
		return vecs, "", err
	}
	base := len(vecs)
	for range c.ni {
		vecs = append(vecs, VX)
	}
	sym := make([]byte, len(vals))
	for i, v := range vals {
		vecs[base+c.cols[i]] = v
		sym[i] = v.String()[0]
	}
	return vecs, string(sym), nil
}

// ParseVector parses one row of 0/1/X symbols into ni values; blanks and
// tabs between symbols are ignored.
func ParseVector(row string, ni int) ([]Value, error) {
	vals := make([]Value, 0, ni)
	for _, r := range row {
		switch r {
		case '0':
			vals = append(vals, V0)
		case '1':
			vals = append(vals, V1)
		case 'x', 'X':
			vals = append(vals, VX)
		case ' ', '\t':
		default:
			return nil, fmt.Errorf("switchsim: bad vector symbol %q in %q", r, row)
		}
	}
	if len(vals) != ni {
		return nil, fmt.Errorf("switchsim: vector %q has %d symbols, want %d inputs", row, len(vals), ni)
	}
	return vals, nil
}

// Run streams vectors through the network. vecs holds one Value per input
// column per vector, row-major (vector k occupies vecs[k*ni : (k+1)*ni]
// in Inputs() order); a VX symbol leaves that input released. watch lists
// the nodes whose settled values are reported per vector; nil reports
// every node, indexed like Network.Nodes.
//
// Each vector settles from power-on state, independently of every other
// vector — batch runs are stateless functional regressions, not
// sequential simulations.
func (b *Batch) Run(vecs []Value, watch []*netlist.Node) (*BatchResult, error) {
	ni := len(b.inputs)
	if ni == 0 {
		return nil, fmt.Errorf("switchsim: network has no input nodes to vector")
	}
	if len(vecs)%ni != 0 {
		return nil, fmt.Errorf("switchsim: %d vector values is not a multiple of %d inputs", len(vecs), ni)
	}
	k := len(vecs) / ni
	res := &BatchResult{
		Vectors: k,
		Out:     make([][]Value, k),
		Osc:     make([]bool, k),
	}
	for base := 0; base < k; base += Lanes {
		lanes := min(Lanes, k-base)
		b.loadSlab(vecs[base*ni:], lanes)
		b.k.seedAll()
		res.Sweeps += b.k.settle()
		b.extract(res, base, lanes, watch)
	}
	return res, nil
}

// loadSlab resets slab state to power-on and drives the definite symbols
// of the next `lanes` vectors. Unused lanes of the last slab run as
// all-released vectors; they can prolong a slab's sweep loop but cannot
// affect other lanes, and they are never extracted.
func (b *Batch) loadSlab(vecs []Value, lanes int) {
	k := &b.k
	k.powerOn()
	ni := len(b.inputs)
	for lane := 0; lane < lanes; lane++ {
		bit := uint64(1) << lane
		row := vecs[lane*ni : (lane+1)*ni]
		for i, v := range row {
			if v == VX {
				continue // released: stays Ω-size X charge
			}
			idx := b.inputs[i].Index
			k.driven[idx] |= bit
			if v == V1 {
				k.dval[idx] |= bit
				k.p0[idx] &^= bit
			} else {
				k.p1[idx] &^= bit
			}
		}
	}
}

// extract decodes the settled lanes into per-vector results.
func (b *Batch) extract(res *BatchResult, base, lanes int, watch []*netlist.Node) {
	k := &b.k
	oscAny := uint64(0)
	for _, m := range k.oscm {
		oscAny |= m
	}
	for lane := 0; lane < lanes; lane++ {
		bit := uint64(1) << lane
		var out []Value
		if watch == nil {
			out = make([]Value, len(k.p0))
			for n := range out {
				out[n] = k.value(n, bit)
			}
		} else {
			out = make([]Value, len(watch))
			for i, w := range watch {
				out[i] = k.value(w.Index, bit)
			}
		}
		res.Out[base+lane] = out
		res.Osc[base+lane] = oscAny&bit != 0
	}
}

// Stats reports compiled-size numbers for logs and metrics.
func (b *Batch) Stats() (nodes, devices, inputs int) {
	return len(b.k.p0), len(b.k.tCap), len(b.inputs)
}
