// Command crystal is the timing verifier: it reads a switch-level netlist
// (Berkeley .sim format, as produced by layout extraction or cmd/benchgen),
// seeds worst-case input events, runs the analysis under a chosen delay
// model, and prints the critical paths — the end-user tool the paper's
// system presents.
//
// Usage:
//
//	crystal -sim alu8.sim [-tech nmos-4u] [-model slope] [-tables char]
//	        [-rise a0,b0] [-fall a0] [-fix ctl=1,en=0] [-slope 1e-9]
//	        [-top 5] [-erc] [-deadline 200e-9]
//	        [-snapshot alu8.simx]
//
// With no -rise/-fall flags every node marked "@ in" in the netlist
// toggles in both directions at t=0, the fully vectorless worst case.
// With -deadline, a slack report follows the critical paths and the exit
// status is 2 if any endpoint misses the deadline. -snapshot names a
// binary .simx cache for the parsed netlist: fresh (same source bytes,
// same tech) it is loaded in place of parsing, otherwise it is
// rewritten after the parse (see docs/PERFORMANCE.md, "Ingest").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/charlib"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/erc"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// config collects everything main parses from flags; run executes it.
type config struct {
	simFile   string
	snapshot  string
	techName  string
	model     string
	tables    string
	rise      string
	fall      string
	fix       string
	inSlope   float64
	hier      string
	top       int
	runERC    bool
	deadline  float64
	loopbreak string
	edits     string
	watch     bool
	cpuprof   string
	memprof   string

	// watchIn overrides os.Stdin as the -watch source (tests).
	watchIn io.Reader
}

// profileStart begins CPU profiling if cpuprof names a file, returning a
// stop function to defer. profileStop writes a heap profile if memprof
// names a file. Both are the stock runtime/pprof protocol, analyzed with
// `go tool pprof`.
func profileStart(cpuprof string) (func(), error) {
	if cpuprof == "" {
		return func() {}, nil
	}
	f, err := os.Create(cpuprof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func profileStop(memprof string) error {
	if memprof == "" {
		return nil
	}
	f, err := os.Create(memprof)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile reflects live data
	return pprof.WriteHeapProfile(f)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.simFile, "sim", "", "input .sim netlist (required)")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "binary .simx netlist cache: load it when fresh, rewrite it after a parse")
	flag.StringVar(&cfg.techName, "tech", "nmos-4u", "technology: nmos-4u or cmos-3u")
	flag.StringVar(&cfg.model, "model", "slope", "delay model: lumped, rc, or slope")
	flag.StringVar(&cfg.tables, "tables", "char", "delay tables: char or analytic")
	flag.StringVar(&cfg.rise, "rise", "", "comma list of inputs that rise at t=0")
	flag.StringVar(&cfg.fall, "fall", "", "comma list of inputs that fall at t=0")
	flag.StringVar(&cfg.fix, "fix", "", "comma list of node=0|1 fixed values")
	flag.Float64Var(&cfg.inSlope, "slope", 1e-9, "input transition time in seconds")
	flag.StringVar(&cfg.hier, "hier", "off", "hierarchical macromodel analysis over instance annotations: on or off (results are bit-identical either way)")
	flag.IntVar(&cfg.top, "top", 5, "number of critical paths to print")
	flag.BoolVar(&cfg.runERC, "erc", false, "run electrical rule checks before timing")
	flag.Float64Var(&cfg.deadline, "deadline", 0, "if positive, print a slack report against this time (seconds)")
	flag.StringVar(&cfg.loopbreak, "loopbreak", "", "comma list of nodes whose fanout is cut (feedback directive)")
	flag.StringVar(&cfg.edits, "edits", "", "edit script to replay with incremental re-analysis after the initial run")
	flag.BoolVar(&cfg.watch, "watch", false, "after the initial run, read edit-script lines from stdin and re-analyze at each `run`")
	flag.StringVar(&cfg.cpuprof, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memprof, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopCPU, err := profileStart(cfg.cpuprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crystal:", err)
		os.Exit(1)
	}
	violations, err := run(cfg, os.Stdout)
	stopCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crystal:", err)
		os.Exit(1)
	}
	if err := profileStop(cfg.memprof); err != nil {
		fmt.Fprintln(os.Stderr, "crystal:", err)
		os.Exit(1)
	}
	if violations > 0 {
		os.Exit(2)
	}
}

// run executes one analysis, writing reports to w. It returns the number
// of deadline violations (0 when no deadline was given).
func run(cfg config, w io.Writer) (int, error) {
	if cfg.simFile == "" {
		return 0, fmt.Errorf("missing -sim file")
	}
	p, err := tech.ByName(cfg.techName)
	if err != nil {
		return 0, err
	}

	nw, res, err := netlist.LoadSimFile(cfg.simFile, cfg.simFile, p,
		netlist.LoadOptions{Snapshot: cfg.snapshot})
	if err != nil {
		return 0, err
	}
	if cfg.snapshot != "" {
		// stderr, so report goldens are unaffected.
		fmt.Fprintf(os.Stderr, "crystal: netlist source: %s\n", res.Source)
	}

	if cfg.runERC {
		fmt.Fprint(w, erc.Format(erc.Check(nw, erc.Options{})))
	}

	tb, err := charlib.Tables(p, cfg.tables)
	if err != nil {
		return 0, err
	}
	m, err := delay.ByName(cfg.model, tb)
	if err != nil {
		return 0, err
	}

	var opts core.Options
	switch cfg.hier {
	case "on":
		opts.Hier = true
	case "off", "":
	default:
		return 0, fmt.Errorf("-hier: want on or off, got %q", cfg.hier)
	}
	d := core.Directives{
		Fix:       map[string]switchsim.Value{},
		LoopBreak: splitList(cfg.loopbreak),
		Rise:      splitList(cfg.rise),
		Fall:      splitList(cfg.fall),
		Slope:     cfg.inSlope,
	}
	for _, kv := range splitList(cfg.fix) {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return 0, fmt.Errorf("bad -fix entry %q (want node=0|1)", kv)
		}
		if d.Fix[name], err = switchsim.ParseValue(val); err != nil {
			return 0, fmt.Errorf("-fix %s: %w", name, err)
		}
	}
	a, err := d.New(nw, m, opts)
	if err != nil {
		return 0, err
	}

	if err := a.Run(); err != nil {
		return 0, err
	}
	// report writes the path (and optional slack) report for the current
	// analysis state; the edit modes call it again after each re-analysis.
	report := func() (int, error) {
		st := a.Net.Stats()
		fmt.Fprintf(w, "crystal: %s — %d transistors, %d nodes (%s tables)\n",
			a.Net.Name, st.Trans, st.Nodes, tb.Source)
		if opts.Hier {
			hs := a.HierStats()
			fmt.Fprintf(w, "crystal: hier: %d instances, %d stamped, %d flat\n",
				hs.Instances, hs.Stamped, hs.Flat)
		}
		if err := a.WriteReport(w, cfg.top); err != nil {
			return 0, err
		}
		if cfg.deadline > 0 {
			fmt.Fprintln(w)
			return a.WriteSlackReport(w, cfg.deadline, cfg.top), nil
		}
		return 0, nil
	}
	violations, err := report()
	if err != nil {
		return 0, err
	}
	if cfg.edits != "" {
		ef, err := os.Open(cfg.edits)
		if err != nil {
			return violations, err
		}
		v, err := replayEdits(a, ef, cfg.edits, w, report, violations)
		ef.Close()
		if err != nil {
			return violations, err
		}
		violations = v
	}
	if cfg.watch {
		in := cfg.watchIn
		if in == nil {
			in = os.Stdin
		}
		v, err := replayEdits(a, in, "stdin", w, report, violations)
		if err != nil {
			return violations, err
		}
		violations = v
	}
	return violations, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
