// Command esim is a batch switch-level logic simulator over .sim netlists,
// in the spirit of the Berkeley esim tool the paper's ecosystem grew from.
// It reads a command script (file or stdin) and prints node values after
// each settle.
//
// Usage:
//
//	esim -sim counter.sim [-tech nmos-4u] [-script cmds.txt]
//	     [-snapshot counter.simx] [-vectors vecs.txt]
//
// -snapshot names a binary .simx cache loaded in place of parsing when
// fresh and rewritten otherwise (see docs/PERFORMANCE.md, "Ingest").
//
// Script commands (one per line, '#' comments):
//
//	h <node>...        drive nodes high
//	l <node>...        drive nodes low
//	x <node>...        release nodes (undriven unknown)
//	s                  settle and report watched nodes
//	w <node>...        add nodes to the watch list
//	d                  dump all node values
//	check <node>=<v>   assert a node's value (0, 1, or X); exit 1 on failure
//
// -vectors FILE switches to batch mode: instead of a command script, the
// file holds one input vector per line (0/1/X symbols, X = released), and
// every vector is settled independently from power-on state through the
// vectorized lattice engine. Two optional directives pick the columns:
//
//	inputs <node>...   map vector columns to these input nodes
//	                   (default: all inputs in netlist order; unmapped
//	                   inputs stay released)
//	watch <node>...    report these nodes per vector (default: outputs)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func main() {
	simFile := flag.String("sim", "", "input .sim netlist (required)")
	techName := flag.String("tech", "nmos-4u", "technology: nmos-4u or cmos-3u")
	script := flag.String("script", "", "command script (default stdin)")
	snapshot := flag.String("snapshot", "", "binary .simx netlist cache: load it when fresh, rewrite it after a parse")
	vectors := flag.String("vectors", "", "vector file: stream input vectors through the batch engine instead of a script")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "esim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *simFile == "" {
		fatal(fmt.Errorf("missing -sim file"))
	}
	p, err := tech.ByName(*techName)
	if err != nil {
		fatal(err)
	}
	nw, res, err := netlist.LoadSimFile(*simFile, *simFile, p,
		netlist.LoadOptions{Snapshot: *snapshot})
	if err != nil {
		fatal(err)
	}
	if *snapshot != "" {
		fmt.Fprintf(os.Stderr, "esim: netlist source: %s\n", res.Source)
	}

	if *vectors != "" {
		vf, err := os.Open(*vectors)
		if err != nil {
			fatal(err)
		}
		defer vf.Close()
		if err := runVectors(nw, vf, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var in io.Reader = os.Stdin
	if *script != "" {
		sf, err := os.Open(*script)
		if err != nil {
			fatal(err)
		}
		defer sf.Close()
		in = sf
	}
	if err := run(nw, in, os.Stdout); err != nil {
		fatal(err)
	}
}

// runVectors executes a vector file through the batch engine; split out
// for testing. Every vector settles independently from power-on state.
func runVectors(nw *netlist.Network, in io.Reader, out io.Writer) error {
	b := switchsim.NewBatch(nw)
	cols, _ := b.Columns(nil) // every input: cannot fail
	watch := nw.Outputs()
	var vecs []switchsim.Value // full-width Run vectors
	var echo []string          // canonical per-row symbol echo
	sc := bufio.NewScanner(in)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch fields[0] {
		case "inputs":
			if len(echo) > 0 {
				return fmt.Errorf("line %d: inputs directive must precede vectors", lineno)
			}
			cols, err = b.Columns(fields[1:])
		case "watch":
			watch, err = nw.LookupAll(fields[1:])
		default:
			var e string
			vecs, e, err = cols.AppendRow(vecs, line)
			echo = append(echo, e)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(watch) == 0 {
		return fmt.Errorf("no nodes to watch: mark outputs in the netlist or add a watch directive")
	}
	fmt.Fprintf(out, "inputs: %s\n", strings.Join(cols.Names, " "))
	fmt.Fprintf(out, "watch: %s\n", strings.Join(netlist.Names(watch), " "))
	res, err := b.Run(vecs, watch)
	if err != nil {
		return err
	}
	for v := 0; v < res.Vectors; v++ {
		fmt.Fprintf(out, "%s ->", echo[v])
		for i, n := range watch {
			fmt.Fprintf(out, " %s=%s", n.Name, res.Out[v][i])
		}
		if res.Osc[v] {
			fmt.Fprintf(out, " [oscillation → X]")
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "vectors: %d, sweeps: %d\n", res.Vectors, res.Sweeps)
	return nil
}

// run executes the command stream; split out for testing.
func run(nw *netlist.Network, in io.Reader, out io.Writer) error {
	s := switchsim.New(nw)
	// Default watch list: marked outputs.
	watch := nw.Outputs()
	sc := bufio.NewScanner(in)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd := fields[0]
		args := fields[1:]
		drive := func(v switchsim.Value) error {
			for _, name := range args {
				if err := s.SetInputName(name, v); err != nil {
					return fmt.Errorf("line %d: %w", lineno, err)
				}
			}
			return nil
		}
		switch cmd {
		case "h":
			if err := drive(switchsim.V1); err != nil {
				return err
			}
		case "l":
			if err := drive(switchsim.V0); err != nil {
				return err
			}
		case "x":
			if err := drive(switchsim.VX); err != nil {
				return err
			}
		case "w":
			for _, name := range args {
				n, err := s.Node(name)
				if err != nil {
					return fmt.Errorf("line %d: %w", lineno, err)
				}
				watch = append(watch, n)
			}
		case "s":
			sweeps := s.Settle()
			fmt.Fprintf(out, "settled (%d sweeps)", sweeps)
			if s.Oscillated() {
				fmt.Fprintf(out, " [oscillation → X]")
			}
			for _, n := range watch {
				fmt.Fprintf(out, " %s=%s", n.Name, s.Value(n))
			}
			fmt.Fprintln(out)
		case "d":
			for _, name := range nw.SortedNodeNames() {
				fmt.Fprintf(out, "%s=%s ", name, s.ValueName(name))
			}
			fmt.Fprintln(out)
		case "check":
			for _, a := range args {
				name, val, ok := strings.Cut(a, "=")
				if !ok {
					return fmt.Errorf("line %d: bad check %q", lineno, a)
				}
				want, err := switchsim.ParseValue(val)
				if err != nil {
					return fmt.Errorf("line %d: %w", lineno, err)
				}
				n, err := s.Node(name)
				if err != nil {
					return fmt.Errorf("line %d: %w", lineno, err)
				}
				if got := s.Value(n); got != want {
					return fmt.Errorf("line %d: check failed: %s=%s, want %s", lineno, name, got, want)
				}
			}
		default:
			return fmt.Errorf("line %d: unknown command %q", lineno, cmd)
		}
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esim:", err)
	os.Exit(1)
}
