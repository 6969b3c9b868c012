// Berkeley .sim file reader and writer.
//
// The .sim format is the lingua franca of the Berkeley switch-level tools
// (esim, crystal, irsim, mextra). The subset implemented here:
//
//	| comment text                      comment / header line
//	| units: <n> tech: <name>           header produced by mextra
//	e <g> <s> <d> [l w [x y]]           n-channel enhancement transistor
//	n <g> <s> <d> [l w [x y]]           synonym for e
//	d <g> <s> <d> [l w [x y]]           n-channel depletion transistor
//	p <g> <s> <d> [l w [x y]]           p-channel transistor
//	r <a> <b> <ohms>                    interconnect (wire) resistor
//	C <a> <b> <cap>                     capacitor, cap in femtofarads
//	c <a> <b> <cap>                     synonym for C
//	N <node> <cap>                      node capacitance in femtofarads
//	= <node> <alias>                    net alias
//	@ in|out <node>...                  input/output markers (extension)
//	@ flow a>b|b>a|off <index>          flow hint for transistor (extension)
//	@ precharged <node>...              precharge markers (extension)
//	@ inst <path> <lo> <hi>             hierarchical stamp annotation:
//	                                    transistors [lo,hi) form instance
//	                                    <path> (extension)
//
// Geometry (l, w) is in "units" — hundredths of a micron scaled by the
// units header (mextra convention: units gives centimicrons per unit;
// absent a header, 1 unit = 1 centimicron = 1e-8 m). Capacitor values are
// femtofarads.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/tech"
)

// centimicron is the base geometry unit of .sim files, in meters.
const centimicron = 1e-8

// femto converts femtofarads to farads.
const femto = 1e-15

// maxSimLine bounds one .sim line; ReadSim rejects longer lines.
const maxSimLine = 4 * 1024 * 1024

// followAliases chases the alias chain from nm to its final target. It
// reports ok=false when the chain loops: `= a b` / `= b a` is expressible
// in the format, and an unbounded walk would hang the parser. The bound is
// the alias-table size — any walk longer than that revisited a name.
func followAliases(aliases map[string]string, nm string) (final string, ok bool) {
	for steps := 0; ; steps++ {
		tgt, hit := aliases[nm]
		if !hit {
			return nm, true
		}
		if steps >= len(aliases) {
			return nm, false
		}
		nm = tgt
	}
}

// appendFields appends the fields of s, split as strings.Fields splits
// them, to dst. ReadSim reuses one slice for every line: a fresh slice per
// line is garbage interleaved with the nodes the line creates, and on a
// chip-scale file that fragmentation held megabytes of heap past the parse.
func appendFields(dst []string, s string) []string {
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return dst
		}
		i := strings.IndexFunc(s, unicode.IsSpace)
		if i < 0 {
			return append(dst, s)
		}
		dst, s = append(dst, s[:i]), s[i:]
	}
}

// ReadSim parses a .sim netlist from r into a new Network named name,
// using technology p for defaults. It returns the network or the first
// syntax error, annotated with a line number.
func ReadSim(name string, p *tech.Params, r io.Reader) (*Network, error) {
	nw := New(name, p)
	scale := 1.0 // units → centimicrons
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxSimLine)
	lineno := 0
	aliases := make(map[string]string)
	// One canonical allocation per distinct symbol: node names, alias
	// table entries and directive operands all share it, instead of each
	// mention pinning its scanner line.
	itn := NewInterner(256)

	resolve := func(nm string) (*Node, error) {
		final, ok := followAliases(aliases, nm)
		if !ok {
			return nil, fmt.Errorf("sim %s:%d: alias cycle resolving %q", name, lineno, nm)
		}
		return nw.Node(itn.Intern(final)), nil
	}

	var fields []string
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields = appendFields(fields[:0], line)
		key := fields[0]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("sim %s:%d: %s", name, lineno, fmt.Sprintf(format, args...))
		}
		switch key {
		case "|":
			// Header or comment. Recognize "| units: N ..." to set scale.
			for i := 1; i < len(fields)-1; i++ {
				if fields[i] == "units:" {
					u, err := strconv.ParseFloat(fields[i+1], 64)
					if err != nil || u <= 0 {
						return nil, fail("bad units value %q", fields[i+1])
					}
					scale = u
				}
			}
		case "e", "n", "d", "p":
			if len(fields) < 4 {
				return nil, fail("transistor line needs at least 3 node names")
			}
			var d tech.Device
			switch key {
			case "e", "n":
				d = tech.NEnh
			case "d":
				d = tech.NDep
			case "p":
				if !p.HasPChannel() {
					return nil, fail("p-channel transistor in technology %s", p.Name)
				}
				d = tech.PEnh
			}
			g, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			a, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			b, err := resolve(fields[3])
			if err != nil {
				return nil, err
			}
			l, w := p.MinL, p.MinW
			if len(fields) >= 6 {
				lv, err1 := strconv.ParseFloat(fields[4], 64)
				wv, err2 := strconv.ParseFloat(fields[5], 64)
				if err1 != nil || err2 != nil {
					return nil, fail("bad geometry %q %q", fields[4], fields[5])
				}
				if lv <= 0 || wv <= 0 {
					return nil, fail("non-positive geometry %g x %g", lv, wv)
				}
				l = lv * scale * centimicron
				w = wv * scale * centimicron
			}
			nw.AddTrans(d, g, a, b, w, l)
		case "r":
			if len(fields) < 4 {
				return nil, fail("resistor line needs two nodes and a value")
			}
			rv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || rv <= 0 {
				return nil, fail("bad resistance %q", fields[3])
			}
			a, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			b, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			nw.AddResistor(a, b, rv)
		case "C", "c":
			if len(fields) < 4 {
				return nil, fail("capacitor line needs two nodes and a value")
			}
			cv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fail("bad capacitance %q", fields[3])
			}
			if cv < 0 {
				return nil, fail("negative capacitance %g", cv)
			}
			a, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			b, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			c := cv * femto
			// Capacitance to a rail is pure node load; between two
			// signal nodes, split it (switch-level tools do not model
			// coupling).
			switch {
			case a.IsRail() && b.IsRail():
				// Rail-to-rail decoupling: irrelevant to timing.
			case a.IsRail():
				nw.AddCap(b, c)
			case b.IsRail():
				nw.AddCap(a, c)
			default:
				nw.AddCap(a, c/2)
				nw.AddCap(b, c/2)
			}
		case "N":
			if len(fields) < 3 {
				return nil, fail("node capacitance line needs a node and a value")
			}
			cv, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return nil, fail("bad capacitance %q", fields[len(fields)-1])
			}
			if cv < 0 {
				return nil, fail("negative capacitance %g", cv)
			}
			n, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			nw.AddCap(n, cv*femto)
		case "=":
			if len(fields) < 3 {
				return nil, fail("alias line needs two names")
			}
			// "= canonical alias": make alias refer to canonical.
			canon, alias := fields[1], fields[2]
			if alias == canon {
				break
			}
			aliases[itn.Intern(alias)] = itn.Intern(canon)
		case "@":
			if len(fields) < 2 {
				return nil, fail("directive line needs a keyword")
			}
			switch fields[1] {
			case "in":
				for _, nm := range fields[2:] {
					n, err := resolve(nm)
					if err != nil {
						return nil, err
					}
					nw.MarkInput(n)
				}
			case "out":
				for _, nm := range fields[2:] {
					n, err := resolve(nm)
					if err != nil {
						return nil, err
					}
					nw.MarkOutput(n)
				}
			case "precharged":
				for _, nm := range fields[2:] {
					n, err := resolve(nm)
					if err != nil {
						return nil, err
					}
					n.Precharged = true
				}
			case "flow":
				if len(fields) < 4 {
					return nil, fail("flow directive needs a direction and a transistor index")
				}
				idx, err := strconv.Atoi(fields[3])
				if err != nil || idx < 0 || idx >= len(nw.Trans) {
					return nil, fail("bad transistor index %q", fields[3])
				}
				switch fields[2] {
				case "a>b":
					nw.Trans[idx].Flow = FlowAB
				case "b>a":
					nw.Trans[idx].Flow = FlowBA
				case "off":
					nw.Trans[idx].Flow = FlowOff
				case "both":
					nw.Trans[idx].Flow = FlowBoth
				default:
					return nil, fail("unknown flow direction %q", fields[2])
				}
			case "inst":
				if len(fields) < 5 {
					return nil, fail("inst directive needs a path and a transistor range")
				}
				lo, err1 := strconv.Atoi(fields[3])
				hi, err2 := strconv.Atoi(fields[4])
				if err1 != nil || err2 != nil || lo < 0 || hi < lo || hi > len(nw.Trans) {
					return nil, fail("bad instance range %q %q", fields[3], fields[4])
				}
				nw.Instances = append(nw.Instances, Instance{
					Path: itn.Intern(fields[2]), TransLo: lo, TransHi: hi,
				})
			default:
				return nil, fail("unknown directive %q", fields[1])
			}
		default:
			return nil, fail("unknown record type %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sim %s: %w", name, err)
	}
	return nw, nil
}

// ReadSimParallel is ReadSim.
//
// Deprecated: kept only because bench/probes.go calls it; ignored.
func ReadSimParallel(name string, p *tech.Params, r io.Reader, _ int) (*Network, error) {
	return ReadSim(name, p, r)
}

// WriteSim writes the network to w in .sim format. Geometry is emitted in
// centimicrons (units: 1); explicit node capacitance is emitted as N
// records in femtofarads. Input/output/flow/precharge attributes are
// emitted as @ directive extensions so that a ReadSim round trip preserves
// them.
func WriteSim(w io.Writer, nw *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "| units: 1 tech: %s name: %s\n", nw.Tech.Name, nw.Name)
	for _, t := range nw.Trans {
		if t.IsWire() {
			fmt.Fprintf(bw, "r %s %s %.6g\n", t.A.Name, t.B.Name, t.ROverride)
			continue
		}
		// %.9g, not a whole number: sub-centimicron geometry must not
		// print as 0, which ReadSim rejects.
		fmt.Fprintf(bw, "%s %s %s %s %.9g %.9g\n",
			t.Type, t.Gate.Name, t.A.Name, t.B.Name,
			t.L/centimicron, t.W/centimicron)
	}
	for _, n := range nw.Nodes {
		if n.IsRail() {
			continue // rails are ideal; their capacitance is meaningless
		}
		// Emit only capacitance beyond the technology default so the
		// round trip is stable (ReadSim re-applies the default).
		if extra := n.Cap - nw.Tech.CWire; extra > 1e-21 {
			fmt.Fprintf(bw, "N %s %.6g\n", n.Name, extra/femto)
		}
	}
	var ins, outs, pre []string
	for _, n := range nw.Nodes {
		switch n.Kind {
		case KindInput:
			ins = append(ins, n.Name)
		case KindOutput:
			outs = append(outs, n.Name)
		}
		if n.Precharged {
			pre = append(pre, n.Name)
		}
	}
	if len(ins) > 0 {
		fmt.Fprintf(bw, "@ in %s\n", strings.Join(ins, " "))
	}
	if len(outs) > 0 {
		fmt.Fprintf(bw, "@ out %s\n", strings.Join(outs, " "))
	}
	if len(pre) > 0 {
		fmt.Fprintf(bw, "@ precharged %s\n", strings.Join(pre, " "))
	}
	for _, t := range nw.Trans {
		if t.Flow != FlowBoth {
			fmt.Fprintf(bw, "@ flow %s %d\n", t.Flow, t.Index)
		}
	}
	for _, inst := range nw.Instances {
		fmt.Fprintf(bw, "@ inst %s %d %d\n", inst.Path, inst.TransLo, inst.TransHi)
	}
	return bw.Flush()
}
