package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/tech"
)

// TestAliasCycleError pins the satellite fix: `= a b` / `= b a` used to
// hang resolve forever. The parser must reject the cycle with a
// line-numbered error instead.
func TestAliasCycleError(t *testing.T) {
	p := tech.NMOS4()
	cases := []struct {
		name, src, wantErr string
	}{
		{"two-cycle", "= a b\n= b a\nN a 1\n", `sim t:3: alias cycle resolving "a"`},
		{"three-cycle", "= a b\n= b c\n= c a\ne a b c\n", `sim t:4: alias cycle resolving "a"`},
		{"cycle-via-directive", "= x y\n= y x\n@ in x\n", `sim t:3: alias cycle resolving "x"`},
		// A reference before the closing alias line resolves fine; only
		// references after the cycle forms may fail.
		{"late-cycle", "= a b\nN a 1\n= b a\nN c 1\nN a 1\n", `sim t:5: alias cycle resolving "a"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSim("t", p, strings.NewReader(tc.src))
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("got %v, want %s", err, tc.wantErr)
			}
		})
	}
}

// TestAliasSelfReference checks that `= a a` stays a no-op (not a cycle).
func TestAliasSelfReference(t *testing.T) {
	p := tech.NMOS4()
	nw, err := ReadSim("t", p, strings.NewReader("= a a\nN a 1\n"))
	if err != nil {
		t.Fatalf("self-alias rejected: %v", err)
	}
	if len(nw.Nodes) != 3 { // Vdd, GND, a
		t.Fatalf("got %d nodes, want 3", len(nw.Nodes))
	}
}

// TestParallelErrorIdentity pins the exact error — message and absolute
// line number — ReadSim reports for each rejected input, with the bad
// line after 200 good ones (or, for the units header, before them). The
// name is kept from when a second parser had to reproduce these.
func TestParallelErrorIdentity(t *testing.T) {
	p := tech.NMOS4()
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "e g%d a%d b%d 2 2\n", i, i, i+1)
	}
	good := sb.String()
	cases := []struct{ src, want string }{
		{good + "z bogus record\n", `sim t:201: unknown record type "z"`},
		{good + "e g\n", `sim t:201: transistor line needs at least 3 node names`},
		{good + "@ flow a>b 999999\n", `sim t:201: bad transistor index "999999"`},
		{good + "@ flow sideways 0\n", `sim t:201: unknown flow direction "sideways"`},
		{good + "@ flow sideways 999999\n", `sim t:201: bad transistor index "999999"`}, // bad index wins over bad direction
		{"| units: 0\n" + good, `sim t:1: bad units value "0"`},
		{good + "N x notanumber\n", `sim t:201: bad capacitance "notanumber"`},
		{good + "r a b -5\n", `sim t:201: bad resistance "-5"`},
		{good + "C a b nope\n", `sim t:201: bad capacitance "nope"`},
		{good + "p g a b 2 2\n", `sim t:201: p-channel transistor in technology nmos-4u`},
		{good + "@\n", `sim t:201: directive line needs a keyword`},
		{good + "@ whatever x\n", `sim t:201: unknown directive "whatever"`},
		{good + "e g a b 0 2\n", `sim t:201: non-positive geometry 0 x 2`},
	}
	for i, tc := range cases {
		_, err := ReadSim("t", p, strings.NewReader(tc.src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("case %d: got %v, want %s", i, err, tc.want)
		}
	}
}

// TestParallelTooLongLine checks that an over-long line is rejected with
// the scanner's ErrTooLong rather than truncated.
func TestParallelTooLongLine(t *testing.T) {
	p := tech.NMOS4()
	src := "N a 1\n| " + strings.Repeat("x", maxSimLine+1) + "\nN b 1\n"
	_, err := ReadSim("t", p, strings.NewReader(src))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("got %v, want ErrTooLong", err)
	}
}

// TestParallelInterleavedState checks the order-dependent records: a
// units: rescale mid-file applies only to later transistors, a re-pointed
// alias resolves later references to its new target, and flow and
// precharge directives land on the devices and nodes they name.
func TestParallelInterleavedState(t *testing.T) {
	p := tech.NMOS4()
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "e g%d a%d b%d 2 2\n", i, i, i+1)
		if i == 100 {
			sb.WriteString("| units: 50\n")
		}
		if i == 150 {
			sb.WriteString("= a150 alias150\n")
		}
		if i == 200 {
			// Re-point the alias: later references resolve differently
			// from earlier ones.
			sb.WriteString("= b200 alias150\nN alias150 3\n")
		}
	}
	sb.WriteString("@ flow a>b 250\n@ precharged a42\n@ in g0\n@ out b300\n")
	nw, err := ReadSim("t", p, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Trans[100].L; got != 2*centimicron {
		t.Errorf("device before units: L = %g, want %g", got, 2*centimicron)
	}
	if got := nw.Trans[101].L; got != 2*50*centimicron {
		t.Errorf("device after units: L = %g, want %g", got, 2*50*centimicron)
	}
	if nw.Lookup("alias150") != nil {
		t.Error("alias name became a node")
	}
	if got, want := nw.Lookup("b200").Cap, p.CWire+3*femto; got != want {
		t.Errorf("re-pointed alias target b200: Cap = %g, want %g", got, want)
	}
	if got := nw.Lookup("a150").Cap; got != p.CWire {
		t.Errorf("stale alias target a150: Cap = %g, want the default %g", got, p.CWire)
	}
	if nw.Trans[250].Flow != FlowAB {
		t.Errorf("device 250 flow = %s, want a>b", nw.Trans[250].Flow)
	}
	if !nw.Lookup("a42").Precharged {
		t.Error("a42 not precharged")
	}
	if nw.Lookup("g0").Kind != KindInput || nw.Lookup("b300").Kind != KindOutput {
		t.Error("in/out markers not applied")
	}
}
