// Package gen generates benchmark circuits as switch-level networks: the
// stand-in for the extracted chip layouts the paper's evaluation ran on.
// Gates adapt to the target technology — depletion-load nMOS or
// complementary CMOS — so every higher-level generator works in both.
//
// Conventions: generators mark their ports with MarkInput/MarkOutput and
// use predictable names ("in", "out", "a0".."aN", "cin", ...), documented
// per generator. All geometry derives from the technology minima.
package gen

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// Lib wraps a network under construction with gate-level builders.
type Lib struct {
	NW   *netlist.Network
	cmos bool
	uniq int
}

// NewLib starts a network in technology p. Gates are CMOS when the
// technology has p-channel devices, depletion-load nMOS otherwise.
func NewLib(name string, p *tech.Params) *Lib {
	return &Lib{NW: netlist.New(name, p), cmos: p.HasPChannel()}
}

// Fresh returns a new uniquely named internal node with the given prefix.
func (l *Lib) Fresh(prefix string) *netlist.Node {
	l.uniq++
	return l.NW.Node(fmt.Sprintf("%s_%d", prefix, l.uniq))
}

// Inverter wires out = NOT in. size scales driver width (1 = minimum).
func (l *Lib) Inverter(in, out *netlist.Node, size float64) {
	p := l.NW.Tech
	w := size * p.MinW
	if l.cmos {
		l.NW.AddTrans(tech.NEnh, in, out, l.NW.GND(), w, p.MinL)
		l.NW.AddTrans(tech.PEnh, in, out, l.NW.Vdd(), 2*w, p.MinL)
		return
	}
	l.NW.AddTrans(tech.NEnh, in, out, l.NW.GND(), w, p.MinL)
	// The load scales with the driver so a sized-up inverter is faster in
	// both directions while preserving the 4:1 pullup ratio.
	l.NW.AddTrans(tech.NDep, out, l.NW.Vdd(), out, w, 4*p.MinL)
}

// Nand wires out = NAND(ins...). Series pulldowns are widened by the
// fan-in to preserve drive (and, in nMOS, the pullup ratio).
func (l *Lib) Nand(out *netlist.Node, ins ...*netlist.Node) {
	if len(ins) == 0 {
		panic("gen: NAND with no inputs")
	}
	p := l.NW.Tech
	k := float64(len(ins))
	// Series n-channel pulldown chain from out to GND.
	prev := out
	for i, in := range ins {
		var next *netlist.Node
		if i == len(ins)-1 {
			next = l.NW.GND()
		} else {
			next = l.Fresh(out.Name + "_nd")
		}
		l.NW.AddTrans(tech.NEnh, in, prev, next, k*p.MinW, p.MinL)
		prev = next
	}
	if l.cmos {
		for _, in := range ins {
			l.NW.AddTrans(tech.PEnh, in, out, l.NW.Vdd(), 2*p.MinW, p.MinL)
		}
		return
	}
	l.NW.AddTrans(tech.NDep, out, l.NW.Vdd(), out, p.MinW, 4*p.MinL)
}

// Nor wires out = NOR(ins...).
func (l *Lib) Nor(out *netlist.Node, ins ...*netlist.Node) {
	if len(ins) == 0 {
		panic("gen: NOR with no inputs")
	}
	p := l.NW.Tech
	for _, in := range ins {
		l.NW.AddTrans(tech.NEnh, in, out, l.NW.GND(), p.MinW, p.MinL)
	}
	if l.cmos {
		k := float64(len(ins))
		prev := l.NW.Vdd()
		for i, in := range ins {
			var next *netlist.Node
			if i == len(ins)-1 {
				next = out
			} else {
				next = l.Fresh(out.Name + "_pu")
			}
			l.NW.AddTrans(tech.PEnh, in, prev, next, k*2*p.MinW, p.MinL)
			prev = next
		}
		return
	}
	l.NW.AddTrans(tech.NDep, out, l.NW.Vdd(), out, p.MinW, 4*p.MinL)
}

// And wires out = AND(ins...) as NAND + inverter.
func (l *Lib) And(out *netlist.Node, ins ...*netlist.Node) {
	mid := l.Fresh(out.Name + "_nand")
	l.Nand(mid, ins...)
	l.Inverter(mid, out, 1)
}

// Or wires out = OR(ins...) as NOR + inverter.
func (l *Lib) Or(out *netlist.Node, ins ...*netlist.Node) {
	mid := l.Fresh(out.Name + "_nor")
	l.Nor(mid, ins...)
	l.Inverter(mid, out, 1)
}

// Xor wires out = a XOR b with the classic four-NAND structure.
func (l *Lib) Xor(out, a, b *netlist.Node) {
	x := l.Fresh(out.Name + "_x")
	l.Nand(x, a, b)
	u := l.Fresh(out.Name + "_u")
	v := l.Fresh(out.Name + "_v")
	l.Nand(u, a, x)
	l.Nand(v, b, x)
	l.Nand(out, u, v)
}

// PassGate wires a pass element between x and y gated by g: a single
// n-channel device in nMOS, a full transmission gate (with gb the
// complement control) in CMOS when gb is non-nil.
func (l *Lib) PassGate(g, gb, x, y *netlist.Node) {
	p := l.NW.Tech
	l.NW.AddTrans(tech.NEnh, g, x, y, p.MinW, p.MinL)
	if l.cmos && gb != nil {
		l.NW.AddTrans(tech.PEnh, gb, x, y, 2*p.MinW, p.MinL)
	}
}

// PassGateDir is PassGate with a flow hint: signal propagates only from →
// to. Flow hints are how Crystal's users broke the sneak paths that
// bidirectional pass structures otherwise present to worst-case analysis.
func (l *Lib) PassGateDir(g, gb, from, to *netlist.Node) {
	p := l.NW.Tech
	t := l.NW.AddTrans(tech.NEnh, g, from, to, p.MinW, p.MinL)
	t.Flow = netlist.FlowAB
	if l.cmos && gb != nil {
		t2 := l.NW.AddTrans(tech.PEnh, gb, from, to, 2*p.MinW, p.MinL)
		t2.Flow = netlist.FlowAB
	}
}

// Buffer wires out = in through two inverters, the second scaled up —
// the "superbuffer" used to drive heavy loads.
func (l *Lib) Buffer(in, out *netlist.Node, drive float64) {
	mid := l.Fresh(out.Name + "_sb")
	l.Inverter(in, mid, 1)
	l.Inverter(mid, out, drive)
}

// FullAdder wires sum = a⊕b⊕cin and cout = majority(a,b,cin) from NAND
// logic (nine gates).
func (l *Lib) FullAdder(sum, cout, a, b, cin *netlist.Node) {
	ab := l.Fresh(sum.Name + "_ab")
	l.Xor(ab, a, b)
	l.Xor(sum, ab, cin)
	n1 := l.Fresh(cout.Name + "_n1")
	n2 := l.Fresh(cout.Name + "_n2")
	n3 := l.Fresh(cout.Name + "_n3")
	l.Nand(n1, a, b)
	l.Nand(n2, a, cin)
	l.Nand(n3, b, cin)
	l.Nand(cout, n1, n2, n3)
}
