// Command delaycmp reproduces the paper's evaluation tables and figures:
// slope-model characterization curves (E1), model accuracy against the
// circuit-level reference (E2), pass-chain scaling (E3), fan-out scaling
// (E4), input-slope response (E5), verifier throughput (E6), per-model
// critical paths of datapath blocks (E7), the RC-tree bound ablation (E8)
// and resistive interconnect scaling (E9).
//
// Usage:
//
//	delaycmp [-tech nmos-4u|cmos-3u] [-exp e1,e2,...,e9|all] [-tables char|analytic]
//	         [-format table|csv] [-cpuprofile f] [-memprofile f]
//
// Independent rows fan out over GOMAXPROCS goroutines; the report is the
// same at every setting. E6 times its blocks one after another, so each
// row's wall time is that block's alone: the median of five analyses
// after an untimed one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/charlib"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/tech"
)

// config carries the parsed command line; run is pure over it. The
// profile paths are main's alone.
type config struct {
	techName, expList, tables, format string
	cpuProfile, memProfile            string
}

// experimentNames lists what -exp accepts besides "all".
var experimentNames = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"}

// parseArgs declares delaycmp's flags on fs and parses args, the command
// line without the program name. main parses with flag.CommandLine; the
// EXPERIMENTS.md check parses each block's command line here too, so a
// block gets the defaults a user gets.
func parseArgs(fs *flag.FlagSet, args []string) (config, error) {
	var cfg config
	fs.StringVar(&cfg.techName, "tech", "nmos-4u", "technology: nmos-4u or cmos-3u")
	fs.StringVar(&cfg.expList, "exp", "all", "experiments to run: comma list of e1..e9, or all")
	fs.StringVar(&cfg.tables, "tables", "char", "delay tables: char (characterized) or analytic")
	fs.StringVar(&cfg.format, "format", "table", "output for accuracy experiments: table or csv")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	err := fs.Parse(args) // before cfg is read: the flags write into it
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return cfg, err
}

func main() {
	cfg, err := parseArgs(flag.CommandLine, os.Args[1:]) // CommandLine exits on a bad flag
	if err != nil {
		fmt.Fprintln(os.Stderr, "delaycmp:", err)
		flag.Usage()
		os.Exit(2)
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if cfg.memProfile != "" {
		defer func() {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if err := run(cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes the selected experiments and writes the report to w; split
// out from main for testing.
func run(cfg config, w io.Writer) error {
	p, err := tech.ByName(cfg.techName)
	if err != nil {
		return err
	}

	tb, err := charlib.Tables(p, cfg.tables)
	if err != nil {
		return err
	}

	want := map[string]bool{}
	if cfg.expList == "all" {
		for _, e := range experimentNames {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(cfg.expList, ",") {
			e = strings.TrimSpace(strings.ToLower(e))
			if !slices.Contains(experimentNames, e) {
				return fmt.Errorf("unknown experiment %q (want a comma list of %s, or all)",
					e, strings.Join(experimentNames, ", "))
			}
			want[e] = true
		}
	}
	fmt.Fprintf(w, "technology %s, %s tables\n\n", p.Name, tb.Source)

	if want["e1"] {
		fmt.Fprintln(w, "E1: slope-model characterization curves (Rmult vs slope ratio)")
		analytic := delay.AnalyticTables(p)
		for _, d := range tech.Devices() {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				if tb.RSquare[d][tr] == 0 {
					continue
				}
				c := tb.Curve(d, tr)
				fmt.Fprintf(w, "  %s/%s Reff=%.0fΩ/sq (rule of thumb %.0f):",
					d, tr, tb.RSquare[d][tr], p.RSquare(d, tr))
				for i, r := range c.Ratio {
					fmt.Fprintf(w, " %g→%.2f", r, c.RMult[i])
				}
				if tb.Source == "characterized" {
					last := c.Ratio[len(c.Ratio)-1]
					am, _ := analytic.Curve(d, tr).At(last)
					fmt.Fprintf(w, "  [analytic@%g: %.2f]", last, am)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w)
	}

	if want["e2"] {
		rows, err := experiments.E2ModelAccuracy(p, tb)
		if err != nil {
			return err
		}
		renderAccuracy(w, cfg.format, "E2: model accuracy vs analog reference", rows)
	}
	if want["e3"] {
		rows, err := experiments.E3PassChains(p, tb, nil)
		if err != nil {
			return err
		}
		renderAccuracy(w, cfg.format, "E3: pass-transistor chain scaling", rows)
	}
	if want["e4"] {
		rows, err := experiments.E4Fanout(p, tb, nil)
		if err != nil {
			return err
		}
		renderAccuracy(w, cfg.format, "E4: delay vs fan-out", rows)
	}
	if want["e5"] {
		rows, err := experiments.E5InputSlope(p, tb, nil)
		if err != nil {
			return err
		}
		renderAccuracy(w, cfg.format, "E5: delay vs input transition time", rows)
	}
	if want["e6"] {
		rows, err := experiments.E6Throughput(p, tb, "slope")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatThroughput("E6: verifier throughput (slope model)", rows))
	}
	if want["e7"] {
		rows, err := experiments.E7CriticalPaths(p, tb)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatCritical("E7: critical paths per model", rows))
	}
	if want["e9"] {
		rows, err := experiments.E9PolyWire(p, tb, nil)
		if err != nil {
			return err
		}
		renderAccuracy(w, cfg.format, "E9: resistive interconnect wire scaling", rows)
	}
	if want["e8"] {
		rows, err := experiments.E8RCBounds(12, 10, 2024)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRCBounds("E8: RPH bounds on random RC trees (v=0.5)", rows))
	}
	return nil
}

// renderAccuracy prints rows in the selected format.
func renderAccuracy(w io.Writer, format, title string, rows []experiments.AccuracyRow) {
	if format == "csv" {
		fmt.Fprintf(w, "# %s\n%s\n", title, experiments.CSVAccuracy(rows))
		return
	}
	fmt.Fprintln(w, experiments.FormatAccuracy(title, rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "delaycmp:", err)
	os.Exit(1)
}
