package gen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// both runs the subtest under both technologies.
func both(t *testing.T, f func(t *testing.T, p *tech.Params)) {
	t.Helper()
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		p := p
		t.Run(p.Name, func(t *testing.T) { f(t, p) })
	}
}

func checkNet(t *testing.T, nw *netlist.Network) {
	t.Helper()
	if err := nw.Check(); err != nil {
		t.Fatalf("network check: %v", err)
	}
}

func setBits(t *testing.T, s *switchsim.Sim, prefix string, width, value int) {
	t.Helper()
	for i := 0; i < width; i++ {
		v := switchsim.FromBool(value&(1<<i) != 0)
		if err := s.SetInputName(fmt.Sprintf("%s%d", prefix, i), v); err != nil {
			t.Fatal(err)
		}
	}
}

func readBits(t *testing.T, s *switchsim.Sim, prefix string, width int) (int, bool) {
	t.Helper()
	val := 0
	for i := 0; i < width; i++ {
		b, ok := s.ValueName(fmt.Sprintf("%s%d", prefix, i)).Bool()
		if !ok {
			return 0, false
		}
		if b {
			val |= 1 << i
		}
	}
	return val, true
}

func TestInverterChainFunctional(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		nw, err := InverterChain(p, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		for _, in := range []switchsim.Value{switchsim.V0, switchsim.V1} {
			s.SetInputName("in", in)
			s.Settle()
			want := switchsim.FromBool(in == switchsim.V0) // odd chain inverts
			if got := s.ValueName("out"); got != want {
				t.Errorf("chain(%v) = %v, want %v", in, got, want)
			}
		}
	})
}

func TestRippleAdderExhaustive(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		const w = 3
		nw, err := RippleAdder(p, w)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		for a := 0; a < 1<<w; a++ {
			for b := 0; b < 1<<w; b++ {
				for c := 0; c < 2; c++ {
					setBits(t, s, "a", w, a)
					setBits(t, s, "b", w, b)
					s.SetInputName("cin", switchsim.FromBool(c == 1))
					s.Settle()
					sum, ok := readBits(t, s, "s", w)
					if !ok {
						t.Fatalf("add(%d,%d,%d): X in sum", a, b, c)
					}
					co, ok := s.ValueName("cout").Bool()
					if !ok {
						t.Fatalf("add(%d,%d,%d): X carry", a, b, c)
					}
					got := sum
					if co {
						got |= 1 << w
					}
					if want := a + b + c; got != want {
						t.Errorf("add(%d,%d,%d) = %d, want %d", a, b, c, got, want)
					}
				}
			}
		}
	})
}

func TestDecoderExhaustive(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		const n = 3
		nw, err := Decoder(p, n)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		for v := 0; v < 1<<n; v++ {
			setBits(t, s, "a", n, v)
			s.Settle()
			for y := 0; y < 1<<n; y++ {
				want := switchsim.FromBool(y == v)
				if got := s.ValueName(fmt.Sprintf("y%d", y)); got != want {
					t.Errorf("decode(%d): y%d = %v, want %v", v, y, got, want)
				}
			}
		}
	})
}

func TestBarrelShifterFunctional(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		const w = 4
		nw, err := BarrelShifter(p, w)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		pattern := 0b0110
		for k := 0; k < w; k++ {
			setBits(t, s, "in", w, pattern)
			for j := 0; j < w; j++ {
				s.SetInputName(fmt.Sprintf("sh%d", j), switchsim.FromBool(j == k))
			}
			s.Settle()
			got, ok := readBits(t, s, "out", w)
			if !ok {
				t.Fatalf("shift %d: X output", k)
			}
			want := 0
			for j := 0; j < w; j++ {
				if pattern&(1<<((j+k)%w)) != 0 {
					want |= 1 << j
				}
			}
			if got != want {
				t.Errorf("rotate-by-%d(%04b) = %04b, want %04b", k, pattern, got, want)
			}
		}
	})
}

func TestALUFunctional(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		const w = 4
		nw, err := ALU(p, w)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		ops := []struct {
			ctl  string
			eval func(a, b int) int
		}{
			{"fand", func(a, b int) int { return a & b }},
			{"for", func(a, b int) int { return a | b }},
			{"fxor", func(a, b int) int { return a ^ b }},
			{"fadd", func(a, b int) int { return (a + b) & (1<<w - 1) }},
		}
		vectors := [][2]int{{0b0011, 0b0101}, {0b1111, 0b0001}, {0b1010, 0b1010}, {0, 0}}
		for _, op := range ops {
			for _, vec := range vectors {
				a, b := vec[0], vec[1]
				setBits(t, s, "a", w, a)
				setBits(t, s, "b", w, b)
				s.SetInputName("cin", switchsim.V0)
				for _, f := range []string{"fand", "for", "fxor", "fadd"} {
					s.SetInputName(f, switchsim.FromBool(f == op.ctl))
				}
				s.Settle()
				got, ok := readBits(t, s, "r", w)
				if !ok {
					t.Fatalf("%s(%04b,%04b): X result", op.ctl, a, b)
				}
				if want := op.eval(a, b); got != want {
					t.Errorf("%s(%04b,%04b) = %04b, want %04b", op.ctl, a, b, got, want)
				}
			}
		}
	})
}

func TestManchesterAdderFunctional(t *testing.T) {
	// The Manchester chain relies on precharge: set phi low (precharge
	// on in nMOS: pullup active when phi high — here we emulate the
	// evaluate phase with carries precharged), so test the evaluate
	// logic: with phi driving the precharge device off and carry nodes
	// starting X, generate/propagate must still force definite carries
	// for vectors that generate at bit 0.
	both(t, func(t *testing.T, p *tech.Params) {
		const w = 3
		nw, err := ManchesterAdder(p, w)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		// Disable the precharge pullup during evaluation.
		phiOff := switchsim.V0
		if !p.HasPChannel() {
			phiOff = switchsim.V0 // nMOS precharge device off at 0 too
		} else {
			phiOff = switchsim.V1 // pMOS precharge device off at 1
		}
		s.SetInputName("phi", phiOff)
		// a=b=1 at every bit: generate everywhere → all carries driven.
		setBits(t, s, "a", w, 0b111)
		setBits(t, s, "b", w, 0b111)
		s.SetInputName("cin", switchsim.V0)
		s.Settle()
		if got := s.ValueName("cout"); got != switchsim.V0 {
			// The chain is active-low (generate pulls down).
			t.Errorf("generate-all cout = %v, want 0 (active-low carry)", got)
		}
	})
}

func TestRegisterFileStructure(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		nw, err := RegisterFile(p, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		st := nw.Stats()
		// 4 words × 4 bits × (2 inverters + access) plus wiring.
		if st.Trans < 4*4*3 {
			t.Errorf("register file has %d transistors, want >= %d", st.Trans, 4*4*3)
		}
	})
}

func TestPLADeterminism(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		a, err := PLA(p, 6, 10, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PLA(p, 6, 10, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, a)
		dump := func(nw *netlist.Network) string {
			var sb strings.Builder
			if err := netlist.WriteSim(&sb, nw); err != nil {
				t.Fatal(err)
			}
			return sb.String()
		}
		da, db := dump(a), dump(b)
		if da != db {
			t.Error("same seed produced different PLAs")
		}
		c, err := PLA(p, 6, 10, 4, 43)
		if err != nil {
			t.Fatal(err)
		}
		if dump(c) == da {
			t.Error("different seeds produced identical PLAs (suspicious)")
		}
	})
}

// TestPLASeedSweep: every seed must build. The fallback that gives an
// empty product or output row one term picks it with a draw modulo the
// row count, and a signed modulus went negative on about half of all
// draws (pla:12,40,12,7 indexed [-2]).
func TestPLASeedSweep(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		for _, shape := range []string{"12,40,12", "3,5,2"} {
			for seed := 0; seed < 64; seed++ {
				spec := fmt.Sprintf("pla:%s,%d", shape, seed)
				nw, err := Build(spec, p)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				checkNet(t, nw)
			}
		}
	})
}

func TestGeneratorErrors(t *testing.T) {
	p := tech.NMOS4()
	if _, err := InverterChain(p, 0, 0); err == nil {
		t.Error("InverterChain(0) should fail")
	}
	if _, err := PassChain(p, 0); err == nil {
		t.Error("PassChain(0) should fail")
	}
	if _, err := RippleAdder(p, 0); err == nil {
		t.Error("RippleAdder(0) should fail")
	}
	if _, err := BarrelShifter(p, 1); err == nil {
		t.Error("BarrelShifter(1) should fail")
	}
	if _, err := Decoder(p, 9); err == nil {
		t.Error("Decoder(9) should fail")
	}
	if _, err := ALU(p, 0); err == nil {
		t.Error("ALU(0) should fail")
	}
	if _, err := RegisterFile(p, 0, 1); err == nil {
		t.Error("RegisterFile(0,1) should fail")
	}
	if _, err := PLA(p, 0, 1, 1, 1); err == nil {
		t.Error("PLA(0,...) should fail")
	}
	if _, err := PrechargedBus(p, 0); err == nil {
		t.Error("PrechargedBus(0) should fail")
	}
}

func TestPolyWireFunctional(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		nw, err := PolyWire(p, 8, 40e3, 400e-15)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		if nw.Stats().Wires != 8 {
			t.Errorf("wire sections = %d, want 8", nw.Stats().Wires)
		}
		s := switchsim.New(nw)
		// in high → driver pulls wstart low → wire carries 0 → out high.
		s.SetInputName("in", switchsim.V1)
		s.Settle()
		if got := s.ValueName("wend"); got != switchsim.V0 {
			t.Errorf("wend = %v, want 0", got)
		}
		if got := s.ValueName("out"); got != switchsim.V1 {
			t.Errorf("out = %v, want 1", got)
		}
		s.SetInputName("in", switchsim.V0)
		s.Settle()
		if got := s.ValueName("out"); got != switchsim.V0 {
			t.Errorf("out = %v, want 0", got)
		}
	})
}

func TestPolyWireErrors(t *testing.T) {
	p := tech.NMOS4()
	if _, err := PolyWire(p, 0, 1e3, 1e-13); err == nil {
		t.Error("zero sections should fail")
	}
	if _, err := PolyWire(p, 2, 0, 1e-13); err == nil {
		t.Error("zero resistance should fail")
	}
	if _, err := PolyWire(p, 2, 1e3, 0); err == nil {
		t.Error("zero capacitance should fail")
	}
}

func TestPassChainHoldsAndPasses(t *testing.T) {
	both(t, func(t *testing.T, p *tech.Params) {
		nw, err := PassChain(p, 6)
		if err != nil {
			t.Fatal(err)
		}
		checkNet(t, nw)
		s := switchsim.New(nw)
		s.SetInputName("ctl", switchsim.V1)
		s.SetInputName("in", switchsim.V1)
		s.Settle()
		if got := s.ValueName("out"); got != switchsim.V1 {
			t.Errorf("pass(1) = %v, want 1", got)
		}
		s.SetInputName("in", switchsim.V0)
		s.Settle()
		if got := s.ValueName("out"); got != switchsim.V0 {
			t.Errorf("pass(0) = %v, want 0", got)
		}
	})
}
