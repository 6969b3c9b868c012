// Benchmark circuit generators: the small accuracy-suite circuits of
// experiment E2 plus the datapath blocks of E6/E7.
package gen

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// InverterChain builds n inverters in series, each loaded with `fanout`
// extra gate loads. Ports: input "in", output "out".
func InverterChain(p *tech.Params, n, fanout int) (*netlist.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: inverter chain needs n >= 1, got %d", n)
	}
	l := NewLib(fmt.Sprintf("invchain-%d", n), p)
	in := l.NW.Node("in")
	l.NW.MarkInput(in)
	prev := in
	for i := 0; i < n; i++ {
		var next *netlist.Node
		if i == n-1 {
			next = l.NW.Node("out")
		} else {
			next = l.NW.Node(fmt.Sprintf("s%d", i+1))
		}
		l.Inverter(prev, next, 1)
		// Extra fan-out loads: dummy inverters whose outputs dangle.
		for f := 0; f < fanout; f++ {
			l.Inverter(next, l.Fresh("load"), 1)
		}
		prev = next
	}
	l.NW.MarkOutput(l.NW.Node("out"))
	return l.NW, nil
}

// FanoutInverter builds one inverter driving n parallel inverter loads.
// Ports: "in", loads "f0".."f(n-1)" (outputs of the loads are dangling);
// the driven node is "out".
func FanoutInverter(p *tech.Params, n int) (*netlist.Network, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative fanout %d", n)
	}
	l := NewLib(fmt.Sprintf("fanout-%d", n), p)
	in, out := l.NW.Node("in"), l.NW.Node("out")
	l.NW.MarkInput(in)
	l.NW.MarkOutput(out)
	l.Inverter(in, out, 1)
	for i := 0; i < n; i++ {
		l.Inverter(out, l.NW.Node(fmt.Sprintf("f%d", i)), 1)
	}
	return l.NW, nil
}

// PassChain builds a chain of n pass transistors from input "in" to output
// "out", all gated by input "ctl", each intermediate node carrying a gate
// load. The canonical distributed-RC structure of experiment E3.
func PassChain(p *tech.Params, n int) (*netlist.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: pass chain needs n >= 1, got %d", n)
	}
	l := NewLib(fmt.Sprintf("passchain-%d", n), p)
	in, ctl := l.NW.Node("in"), l.NW.Node("ctl")
	l.NW.MarkInput(in)
	l.NW.MarkInput(ctl)
	prev := in
	for i := 0; i < n; i++ {
		var next *netlist.Node
		if i == n-1 {
			next = l.NW.Node("out")
		} else {
			next = l.NW.Node(fmt.Sprintf("p%d", i+1))
		}
		t := l.NW.AddTrans(tech.NEnh, ctl, prev, next, p.MinW, p.MinL)
		t.Flow = netlist.FlowAB // signal flows in→out
		prev = next
	}
	out := l.NW.Node("out")
	l.NW.MarkOutput(out)
	// Terminate in an inverter so the output is restored, as a designer
	// would.
	l.Inverter(out, l.Fresh("restored"), 1)
	return l.NW, nil
}

// Superbuffer builds the classic two-stage driver: "in" through a
// superbuffer into a large capacitive load "out" (ten gate loads).
func Superbuffer(p *tech.Params) (*netlist.Network, error) {
	l := NewLib("superbuffer", p)
	in, out := l.NW.Node("in"), l.NW.Node("out")
	l.NW.MarkInput(in)
	l.NW.MarkOutput(out)
	l.Buffer(in, out, 4)
	for i := 0; i < 10; i++ {
		l.Inverter(out, l.Fresh("load"), 1)
	}
	return l.NW, nil
}

// PrechargedBus builds a bus node "bus" with heavy wiring capacitance,
// precharged high, discharged by n driver pulldowns gated by inputs
// "en0".."en(n-1)". The bus feeds an output inverter "out".
func PrechargedBus(p *tech.Params, n int) (*netlist.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: bus needs at least one driver, got %d", n)
	}
	l := NewLib(fmt.Sprintf("bus-%d", n), p)
	bus := l.NW.Node("bus")
	bus.Precharged = true
	l.NW.AddCap(bus, 0.5e-12) // long wire
	for i := 0; i < n; i++ {
		en := l.NW.Node(fmt.Sprintf("en%d", i))
		l.NW.MarkInput(en)
		// Two-high stack: enable AND data (data tied to another input).
		d := l.NW.Node(fmt.Sprintf("d%d", i))
		l.NW.MarkInput(d)
		mid := l.Fresh("stk")
		l.NW.AddTrans(tech.NEnh, en, bus, mid, 2*p.MinW, p.MinL)
		l.NW.AddTrans(tech.NEnh, d, mid, l.NW.GND(), 2*p.MinW, p.MinL)
	}
	out := l.NW.Node("out")
	l.NW.MarkOutput(out)
	l.Inverter(bus, out, 2)
	return l.NW, nil
}

// RippleAdder builds a w-bit ripple-carry adder from gate-level full
// adders. Ports: "a0".."a(w-1)", "b0".."b(w-1)", "cin"; outputs
// "s0".."s(w-1)", "cout".
func RippleAdder(p *tech.Params, w int) (*netlist.Network, error) {
	if w < 1 {
		return nil, fmt.Errorf("gen: adder width must be >= 1, got %d", w)
	}
	l := NewLib(fmt.Sprintf("ripple-%d", w), p)
	carry := l.NW.Node("cin")
	l.NW.MarkInput(carry)
	for i := 0; i < w; i++ {
		a := l.NW.Node(fmt.Sprintf("a%d", i))
		b := l.NW.Node(fmt.Sprintf("b%d", i))
		l.NW.MarkInput(a)
		l.NW.MarkInput(b)
		s := l.NW.Node(fmt.Sprintf("s%d", i))
		l.NW.MarkOutput(s)
		var cout *netlist.Node
		if i == w-1 {
			cout = l.NW.Node("cout")
			l.NW.MarkOutput(cout)
		} else {
			cout = l.NW.Node(fmt.Sprintf("c%d", i+1))
		}
		l.FullAdder(s, cout, a, b, carry)
		carry = cout
	}
	return l.NW, nil
}

// ManchesterAdder builds a w-bit Manchester carry-chain adder: per-bit
// propagate/generate logic drives a precharged pass-transistor carry
// chain — the pass-transistor-heavy structure that motivated the
// distributed model. Ports as RippleAdder, plus "phi" (precharge clock).
func ManchesterAdder(p *tech.Params, w int) (*netlist.Network, error) {
	if w < 1 {
		return nil, fmt.Errorf("gen: adder width must be >= 1, got %d", w)
	}
	l := NewLib(fmt.Sprintf("manchester-%d", w), p)
	phi := l.NW.Node("phi")
	l.NW.MarkInput(phi)
	cin := l.NW.Node("cin")
	l.NW.MarkInput(cin)
	// Carry-bar chain: cb[i] is low when a carry enters bit i.
	carry := cin
	for i := 0; i < w; i++ {
		a := l.NW.Node(fmt.Sprintf("a%d", i))
		b := l.NW.Node(fmt.Sprintf("b%d", i))
		l.NW.MarkInput(a)
		l.NW.MarkInput(b)
		prop := l.Fresh("p")
		gen := l.Fresh("g")
		l.Xor(prop, a, b)
		l.And(gen, a, b)
		var next *netlist.Node
		if i == w-1 {
			next = l.NW.Node("cout")
			l.NW.MarkOutput(next)
		} else {
			next = l.NW.Node(fmt.Sprintf("c%d", i+1))
		}
		next.Precharged = true
		// Precharge device (clocked pullup).
		if p.HasPChannel() {
			l.NW.AddTrans(tech.PEnh, phi, next, l.NW.Vdd(), 2*p.MinW, p.MinL)
		} else {
			l.NW.AddTrans(tech.NEnh, phi, next, l.NW.Vdd(), 2*p.MinW, p.MinL)
		}
		// Generate: pull the next carry node active.
		l.NW.AddTrans(tech.NEnh, gen, next, l.NW.GND(), 2*p.MinW, p.MinL)
		// Propagate: pass the incoming carry along the chain.
		t := l.NW.AddTrans(tech.NEnh, prop, carry, next, 2*p.MinW, p.MinL)
		t.Flow = netlist.FlowAB
		// Sum output.
		s := l.NW.Node(fmt.Sprintf("s%d", i))
		l.NW.MarkOutput(s)
		l.Xor(s, prop, carry)
		carry = next
	}
	return l.NW, nil
}

// BarrelShifter builds a w-bit pass-transistor barrel shifter: output j
// connects to input (j+k) mod w through a pass device gated by the
// one-hot shift-select "sh0".."sh(w-1)". Ports: "in0".."in(w-1)" and the
// selects as inputs; "out0".."out(w-1)" as outputs.
func BarrelShifter(p *tech.Params, w int) (*netlist.Network, error) {
	if w < 2 {
		return nil, fmt.Errorf("gen: shifter width must be >= 2, got %d", w)
	}
	l := NewLib(fmt.Sprintf("barrel-%d", w), p)
	ins := make([]*netlist.Node, w)
	outs := make([]*netlist.Node, w)
	for i := 0; i < w; i++ {
		ins[i] = l.NW.Node(fmt.Sprintf("in%d", i))
		l.NW.MarkInput(ins[i])
		outs[i] = l.NW.Node(fmt.Sprintf("out%d", i))
		l.NW.MarkOutput(outs[i])
	}
	for k := 0; k < w; k++ {
		sh := l.NW.Node(fmt.Sprintf("sh%d", k))
		l.NW.MarkInput(sh)
		for j := 0; j < w; j++ {
			t := l.NW.AddTrans(tech.NEnh, sh, ins[(j+k)%w], outs[j], p.MinW, p.MinL)
			t.Flow = netlist.FlowAB // data flows input → output
		}
	}
	return l.NW, nil
}

// Decoder builds an n-to-2^n decoder: inverters for complements plus one
// n-input NOR per output. Ports: "a0".."a(n-1)"; outputs "y0".."y(2^n-1)".
func Decoder(p *tech.Params, n int) (*netlist.Network, error) {
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("gen: decoder supports 1..8 address bits, got %d", n)
	}
	l := NewLib(fmt.Sprintf("decoder-%d", n), p)
	addr := make([]*netlist.Node, n)
	addrB := make([]*netlist.Node, n)
	for i := 0; i < n; i++ {
		addr[i] = l.NW.Node(fmt.Sprintf("a%d", i))
		l.NW.MarkInput(addr[i])
		addrB[i] = l.NW.Node(fmt.Sprintf("ab%d", i))
		l.Inverter(addr[i], addrB[i], 1)
	}
	for v := 0; v < 1<<n; v++ {
		y := l.NW.Node(fmt.Sprintf("y%d", v))
		l.NW.MarkOutput(y)
		ins := make([]*netlist.Node, n)
		for i := 0; i < n; i++ {
			// NOR output is high when every selected line is low, so
			// feed the line that is low when bit i of v matches.
			if v&(1<<i) != 0 {
				ins[i] = addrB[i]
			} else {
				ins[i] = addr[i]
			}
		}
		l.Nor(y, ins...)
	}
	return l.NW, nil
}

// ALU builds a w-bit function unit: per-bit AND, OR, XOR and a ripple ADD,
// selected by one-hot controls "fand", "for", "fxor", "fadd" through pass
// muxes, with a buffered output. Ports: "a0".., "b0".., "cin"; outputs
// "r0".."r(w-1)", "cout".
func ALU(p *tech.Params, w int) (*netlist.Network, error) {
	if w < 1 {
		return nil, fmt.Errorf("gen: ALU width must be >= 1, got %d", w)
	}
	l := NewLib(fmt.Sprintf("alu-%d", w), p)
	sel := map[string]*netlist.Node{}
	selB := map[string]*netlist.Node{}
	for _, f := range []string{"fand", "for", "fxor", "fadd"} {
		sel[f] = l.NW.Node(f)
		l.NW.MarkInput(sel[f])
		selB[f] = l.Fresh(f + "b")
		l.Inverter(sel[f], selB[f], 1)
	}
	carry := l.NW.Node("cin")
	l.NW.MarkInput(carry)
	for i := 0; i < w; i++ {
		a := l.NW.Node(fmt.Sprintf("a%d", i))
		b := l.NW.Node(fmt.Sprintf("b%d", i))
		l.NW.MarkInput(a)
		l.NW.MarkInput(b)
		andN := l.Fresh("and")
		orN := l.Fresh("or")
		xorN := l.Fresh("xor")
		sumN := l.Fresh("sum")
		l.And(andN, a, b)
		l.Or(orN, a, b)
		l.Xor(xorN, a, b)
		var cout *netlist.Node
		if i == w-1 {
			cout = l.NW.Node("cout")
			l.NW.MarkOutput(cout)
		} else {
			cout = l.Fresh("c")
		}
		l.FullAdder(sumN, cout, a, b, carry)
		carry = cout
		// Pass-mux the four results onto the output bus bit. The flow
		// hints (data flows into the bus) break the sneak paths that
		// bidirectional muxes otherwise present to worst-case timing.
		bus := l.Fresh("bus")
		l.PassGateDir(sel["fand"], selB["fand"], andN, bus)
		l.PassGateDir(sel["for"], selB["for"], orN, bus)
		l.PassGateDir(sel["fxor"], selB["fxor"], xorN, bus)
		l.PassGateDir(sel["fadd"], selB["fadd"], sumN, bus)
		r := l.NW.Node(fmt.Sprintf("r%d", i))
		l.NW.MarkOutput(r)
		// Restore through two inverters so r follows bus.
		mid := l.Fresh("restore")
		l.Inverter(bus, mid, 1)
		l.Inverter(mid, r, 2)
	}
	return l.NW, nil
}

// RegisterFile builds a words×bits array of static cells (cross-coupled
// inverters) with pass-transistor access: word lines "w0".. select a row,
// bit lines "bit0".. carry data. Bit lines are precharged. Ports: word
// lines and "wr" as inputs, bit lines marked output.
func RegisterFile(p *tech.Params, words, bits int) (*netlist.Network, error) {
	if words < 1 || bits < 1 {
		return nil, fmt.Errorf("gen: register file needs positive dimensions, got %d×%d", words, bits)
	}
	l := NewLib(fmt.Sprintf("regfile-%dx%d", words, bits), p)
	bit := make([]*netlist.Node, bits)
	for b := 0; b < bits; b++ {
		bit[b] = l.NW.Node(fmt.Sprintf("bit%d", b))
		bit[b].Precharged = true
		l.NW.AddCap(bit[b], 0.2e-12) // column wire
		l.NW.MarkOutput(bit[b])
	}
	for wl := 0; wl < words; wl++ {
		word := l.NW.Node(fmt.Sprintf("w%d", wl))
		l.NW.MarkInput(word)
		for b := 0; b < bits; b++ {
			// Deterministic cell names so analyses can reference them
			// (e.g. loop-break directives on the storage feedback).
			q := l.NW.Node(fmt.Sprintf("q_%d_%d", wl, b))
			qb := l.NW.Node(fmt.Sprintf("qb_%d_%d", wl, b))
			l.Inverter(q, qb, 1)
			l.Inverter(qb, q, 1)
			l.NW.AddTrans(tech.NEnh, word, bit[b], q, p.MinW, p.MinL)
		}
	}
	return l.NW, nil
}

// PolyWire builds an inverter driving a resistive interconnect wire
// modeled as n RC sections (total resistance totalR ohms, total
// capacitance totalC farads), terminated in a receiving inverter — the
// structure whose analysis motivated the distributed RC model. Ports:
// "in"; the wire's far end is "wend", the restored output "out".
func PolyWire(p *tech.Params, n int, totalR, totalC float64) (*netlist.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: wire needs at least one section, got %d", n)
	}
	if totalR <= 0 || totalC <= 0 {
		return nil, fmt.Errorf("gen: wire needs positive R (%g) and C (%g)", totalR, totalC)
	}
	l := NewLib(fmt.Sprintf("polywire-%d", n), p)
	in := l.NW.Node("in")
	l.NW.MarkInput(in)
	drv := l.NW.Node("wstart")
	l.Inverter(in, drv, 2)
	prev := drv
	secR := totalR / float64(n)
	secC := totalC / float64(n)
	// Half a section's capacitance lands on each end of a section.
	l.NW.AddCap(prev, secC/2)
	for i := 0; i < n; i++ {
		var next *netlist.Node
		if i == n-1 {
			next = l.NW.Node("wend")
		} else {
			next = l.NW.Node(fmt.Sprintf("w%d", i+1))
		}
		l.NW.AddResistor(prev, next, secR)
		c := secC
		if i == n-1 {
			c = secC / 2
		}
		l.NW.AddCap(next, c)
		prev = next
	}
	out := l.NW.Node("out")
	l.NW.MarkOutput(out)
	l.Inverter(prev, out, 1)
	return l.NW, nil
}

// ShiftRegister builds an n-stage two-phase dynamic shift register: each
// stage is pass(phi1) → inverter → pass(phi2) → inverter, the canonical
// clocked-nMOS pipeline. Ports: "in", "phi1", "phi2"; output "out".
// Intermediate dynamic nodes are "d<i>a"/"d<i>b".
func ShiftRegister(p *tech.Params, n int) (*netlist.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: shift register needs n >= 1, got %d", n)
	}
	l := NewLib(fmt.Sprintf("shiftreg-%d", n), p)
	phi1 := l.NW.Node("phi1")
	phi2 := l.NW.Node("phi2")
	l.NW.MarkInput(phi1)
	l.NW.MarkInput(phi2)
	cur := l.NW.Node("in")
	l.NW.MarkInput(cur)
	for i := 0; i < n; i++ {
		da := l.NW.Node(fmt.Sprintf("d%da", i))
		t1 := l.NW.AddTrans(tech.NEnh, phi1, cur, da, 0, 0)
		t1.Flow = netlist.FlowAB
		ia := l.Fresh("sr_inv")
		l.Inverter(da, ia, 1)
		db := l.NW.Node(fmt.Sprintf("d%db", i))
		t2 := l.NW.AddTrans(tech.NEnh, phi2, ia, db, 0, 0)
		t2.Flow = netlist.FlowAB
		var next *netlist.Node
		if i == n-1 {
			next = l.NW.Node("out")
			l.NW.MarkOutput(next)
		} else {
			next = l.Fresh("sr_stage")
		}
		l.Inverter(db, next, 1)
		cur = next
	}
	return l.NW, nil
}

// PLA builds an inputs×products×outputs programmable logic array in
// NOR-NOR form, programmed by a deterministic pattern derived from seed.
// Ports: "in0".. as inputs, "o0".. as outputs.
func PLA(p *tech.Params, inputs, products, outputs int, seed uint64) (*netlist.Network, error) {
	if inputs < 1 || products < 1 || outputs < 1 {
		return nil, fmt.Errorf("gen: PLA needs positive dimensions")
	}
	l := NewLib(fmt.Sprintf("pla-%dx%dx%d", inputs, products, outputs), p)
	// splitmix64 scramble so that nearby seeds give unrelated streams,
	// then xorshift64 for the draw sequence. Deterministic and stateless.
	rng := (seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	rng ^= rng >> 31
	if rng == 0 {
		rng = 0x2545f4914f6cdd1d
	}
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	in := make([]*netlist.Node, inputs)
	inB := make([]*netlist.Node, inputs)
	for i := range in {
		in[i] = l.NW.Node(fmt.Sprintf("in%d", i))
		l.NW.MarkInput(in[i])
		inB[i] = l.Fresh("inb")
		l.Inverter(in[i], inB[i], 1)
	}
	prod := make([]*netlist.Node, products)
	for t := range prod {
		prod[t] = l.Fresh("prod")
		var terms []*netlist.Node
		for i := range in {
			switch next() % 4 {
			case 0:
				terms = append(terms, in[i])
			case 1:
				terms = append(terms, inB[i])
			}
		}
		if len(terms) == 0 {
			terms = append(terms, in[next()%uint64(inputs)])
		}
		l.Nor(prod[t], terms...)
	}
	for o := 0; o < outputs; o++ {
		out := l.NW.Node(fmt.Sprintf("o%d", o))
		l.NW.MarkOutput(out)
		var terms []*netlist.Node
		for t := range prod {
			if next()%3 == 0 {
				terms = append(terms, prod[t])
			}
		}
		if len(terms) == 0 {
			terms = append(terms, prod[next()%uint64(products)])
		}
		norOut := l.Fresh("onor")
		l.Nor(norOut, terms...)
		l.Inverter(norOut, out, 2)
	}
	return l.NW, nil
}
