package netlist

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/tech"
)

// FuzzReadSim checks that ReadSim's field splitter agrees with
// strings.Fields, that arbitrary input never panics the parser, and
// that anything it accepts passes the structural checker and makes
// WriteSim a fixpoint: once the written text has been read back,
// writing and re-reading it reproduces it byte for byte. (Comparing the
// networks themselves would be too strict — capacitances are rounded in
// the text.)
func FuzzReadSim(f *testing.F) {
	seeds := []string{
		sampleSim,
		"| units: 100 tech: nmos\ne a b c\n",
		"e g s d 2 2\nd o Vdd o 8 2\np g a b 2 4\n",
		"C a b 10\nN a 5\n= a b\n@ in a\n@ out b\n",
		"@ flow a>b 0\n",
		"e g a b 2 2\n@ flow b>a 0\n@ precharged a\n",
		"r a b 5000\nC b GND 100\n",
		"",
		"| just a comment\n",
		"N x 1e300\n",
		"e g a b 99999999 1\n",
		// Alias cycle: `resolve` used to chase this pair forever.
		"= a b\n= b a\nN a 1\n",
		"= a a\nN a 1\n",
		"= x y\nN y 2\n= y x\nN x 3\n",
		// Interning: one name repeated on every line must stay one node.
		"N aa 1\nN aa 2\nN aa 3\nN aa 4\nN aa 5\nN aa 6\n",
		// Alias whose two sides first appear on different lines, with
		// devices referencing both spellings afterwards:
		"e node_alpha x0 y0\ne node_beta x1 y1\n= node_alpha node_beta\nN node_beta 7\n",
		// Many distinct names, then reuse of every one of them later:
		"e a0 b0 c0\ne a1 b1 c1\ne a2 b2 c2\ne a3 b3 c3\ne c3 b2 a1\ne c0 b1 a2\n",
		// Rails mentioned on every line alongside locals:
		"e g1 Vdd n1\ne g2 GND n2\ne g3 Vdd n1\ne g4 GND n2\n",
		// Alias chain whose links sit on separate lines:
		"= p q\n= q r\n= r s\nN s 9\ne p s GND\n",
		// Sub-centimicron geometry (once written back as 0) and a
		// negative node capacitance (once accepted, failing Check):
		"e g a b 0.004 4\n",
		"N x -20\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	p := tech.NMOS4()
	f.Fuzz(func(t *testing.T, input string) {
		if got, want := appendFields(nil, input), strings.Fields(input); !slices.Equal(got, want) {
			t.Fatalf("appendFields = %q, strings.Fields = %q", got, want)
		}
		nw, err := ReadSim("fuzz", p, strings.NewReader(input))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if err := nw.Check(); err != nil {
			// The parser accepted something structurally invalid. The
			// only known case is a supply short, which the format can
			// express; everything else is a parser bug.
			if !strings.Contains(err.Error(), "shorts the supplies") {
				t.Fatalf("accepted netlist fails Check: %v\ninput:\n%s", err, input)
			}
			return
		}
		// reread writes nw and reads the text back.
		reread := func(nw *Network) (string, *Network) {
			var sb strings.Builder
			if err := WriteSim(&sb, nw); err != nil {
				t.Fatalf("WriteSim failed on accepted netlist: %v", err)
			}
			back, err := ReadSim("fuzz", p, strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("round trip failed: %v\nwritten:\n%s", err, sb.String())
			}
			return sb.String(), back
		}
		// The fixpoint starts at the second write: ReadSim numbers nodes in
		// first-mention order and WriteSim lists transistors before
		// capacitances, so a node the input first mentions in a capacitor
		// line moves behind the transistor nodes once, N line and all.
		_, back := reread(nw)
		second, back := reread(back)
		if third, _ := reread(back); third != second {
			t.Fatalf("WriteSim is not a fixpoint\ninput:\n%s\n--- second ---\n%s\n--- third ---\n%s", input, second, third)
		}
	})
}
