// Command benchgen emits generated benchmark circuits as Berkeley .sim
// files, the interchange format the timing verifier (cmd/crystal) reads —
// the stand-in for layout extraction in the paper's toolchain.
//
// Usage:
//
//	benchgen -list
//	benchgen -circuit alu:8 [-tech nmos-4u] [-o alu8.sim] [-snapshot alu8.simx]
//
// -snapshot additionally writes a binary .simx snapshot keyed by the
// hash of the emitted .sim text, so a following
// `crystal -sim alu8.sim -snapshot alu8.simx` starts warm without ever
// parsing (see docs/PERFORMANCE.md, "Ingest").
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// config carries the parsed command line; run is pure over it.
type config struct {
	circuit  string
	techName string
	snapshot string
	list     bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.circuit, "circuit", "", "circuit spec, e.g. alu:8 or passchain:6")
	flag.StringVar(&cfg.techName, "tech", "nmos-4u", "technology: nmos-4u or cmos-3u")
	out := flag.String("o", "", "output file (default stdout)")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "also write a binary .simx snapshot of the circuit to this file")
	flag.BoolVar(&cfg.list, "list", false, "list available circuits")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := run(cfg, w, os.Stderr); err != nil {
		fatal(err)
	}
}

// run emits the listing or the generated netlist to w and the summary
// line to diag; split out from main for testing.
func run(cfg config, w, diag io.Writer) error {
	if cfg.list {
		fmt.Fprintln(w, "available circuits:")
		for _, s := range gen.List() {
			fmt.Fprintf(w, "  %-12s %-16s %s\n", s.Name, s.Args, s.Doc)
		}
		return nil
	}
	if cfg.circuit == "" {
		return fmt.Errorf("missing -circuit (or use -list)")
	}
	var p *tech.Params
	switch cfg.techName {
	case "nmos-4u", "nmos":
		p = tech.NMOS4()
	case "cmos-3u", "cmos":
		p = tech.CMOS3()
	default:
		return fmt.Errorf("unknown technology %q", cfg.techName)
	}
	nw, err := gen.Build(cfg.circuit, p)
	if err != nil {
		return err
	}
	if err := nw.Check(); err != nil {
		return err
	}
	// Emit through a buffer: the snapshot's freshness hash must cover the
	// exact .sim bytes so a later `crystal -sim f.sim -snapshot f.simx`
	// validates it against the file on disk.
	var buf bytes.Buffer
	if err := netlist.WriteSim(&buf, nw); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if cfg.snapshot != "" {
		// Snapshot the network as a reader of the emitted text would see
		// it — node indexes follow textual first-appearance order, not the
		// generator's construction order — so a warm load is byte-identical
		// to a cold parse of the .sim file.
		reparsed, err := netlist.ReadSim(nw.Name, p, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("reparsing emitted circuit: %w", err)
		}
		if err := netlist.WriteSnapshotFile(cfg.snapshot, reparsed, sha256.Sum256(buf.Bytes())); err != nil {
			return err
		}
	}
	st := nw.Stats()
	fmt.Fprintf(diag, "benchgen: %s — %d transistors, %d nodes, %d inputs, %d outputs\n",
		nw.Name, st.Trans, st.Nodes, st.Inputs, st.Outputs)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
