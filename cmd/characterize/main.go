// Command characterize regenerates the slope-model delay tables for a
// technology by sweeping ramp-input fixtures on the analog reference
// simulator — the reproduction of the paper's SPICE characterization step
// (experiment E1). Output formats: a human-readable table (default), CSV
// for plotting, or Go source: `go generate ./internal/charlib` commits the
// latter, at default options, as the tables charlib.Default returns.
//
// Usage:
//
//	characterize [-tech nmos-4u|cmos-3u] [-format table|csv|go]
//	             [-ratios 0,1,2,4,8] [-load 100e-15]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/charlib"
	"repro/internal/delay"
	"repro/internal/tech"
)

// config carries the parsed command line; run is pure over it.
type config struct {
	techName  string
	format    string
	ratioList string
	load      float64
	compare   bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.techName, "tech", "nmos-4u", "technology: nmos-4u or cmos-3u")
	flag.StringVar(&cfg.format, "format", "table", "output format: table, csv, or go")
	flag.StringVar(&cfg.ratioList, "ratios", "", "comma-separated slope ratios (default 0,0.5,1,2,4,8,16,32)")
	flag.Float64Var(&cfg.load, "load", 100e-15, "fixture load capacitance in farads")
	flag.BoolVar(&cfg.compare, "compare", false, "also print the analytic tables for comparison")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "characterize: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if err := run(cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

// run characterizes the technology and writes the tables to w; split out
// from main for testing.
func run(cfg config, w io.Writer) error {
	p, err := tech.ByName(cfg.techName)
	if err != nil {
		return err
	}
	opt := charlib.Options{Load: cfg.load}
	if cfg.ratioList != "" {
		for _, s := range strings.Split(cfg.ratioList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad ratio %q: %w", s, err)
			}
			opt.Ratios = append(opt.Ratios, v)
		}
	}
	tb, err := charlib.Characterize(p, opt)
	if err != nil {
		return err
	}
	switch cfg.format {
	case "table":
		printTable(w, tb, p)
		if cfg.compare {
			fmt.Fprintln(w)
			fmt.Fprintln(w, "analytic fallback:")
			printTable(w, delay.AnalyticTables(p), p)
		}
	case "csv":
		printCSV(w, tb)
	case "go":
		return printGo(w, tb)
	default:
		return fmt.Errorf("unknown format %q", cfg.format)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}

func printTable(w io.Writer, tb *delay.Tables, p *tech.Params) {
	fmt.Fprintf(w, "technology %s, tables %s\n", tb.Tech, tb.Source)
	for _, d := range tech.Devices() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if tb.RSquare[d][tr] == 0 {
				continue
			}
			c := tb.Curve(d, tr)
			fmt.Fprintf(w, "\ndevice %s, output %s: Reff = %.0f Ω/sq (rule of thumb %.0f)\n",
				d, tr, tb.RSquare[d][tr], p.RSquare(d, tr))
			fmt.Fprintf(w, "  %-8s %-8s %-8s\n", "ratio", "Rmult", "Tfactor")
			for i, r := range c.Ratio {
				fmt.Fprintf(w, "  %-8.3g %-8.3f %-8.3f\n", r, c.RMult[i], c.TFactor[i])
			}
		}
	}
}

func printCSV(w io.Writer, tb *delay.Tables) {
	fmt.Fprintln(w, "device,transition,ratio,rmult,tfactor")
	for _, d := range tech.Devices() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if tb.RSquare[d][tr] == 0 {
				continue
			}
			c := tb.Curve(d, tr)
			for i, r := range c.Ratio {
				fmt.Fprintf(w, "%s,%s,%g,%g,%g\n", d, tr, r, c.RMult[i], c.TFactor[i])
			}
		}
	}
}

// printGo writes tb as a complete, gofmt-formatted Go file of package
// charlib: internal/charlib's go:generate lines commit its output as the
// tables charlib.Default returns.
func printGo(w io.Writer, tb *delay.Tables) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by cmd/characterize for %s; DO NOT EDIT.\n\n", tb.Tech)
	fmt.Fprintf(&b, "package charlib\n\nimport \"repro/internal/delay\"\n\n")
	fmt.Fprintf(&b, "var tables%s = delay.Tables{\n", sanitize(tb.Tech))
	fmt.Fprintf(&b, "\tSource: %q,\n\tTech: %q,\n", tb.Source, tb.Tech)
	fmt.Fprintf(&b, "\tRSquare: [4][2]float64{\n")
	for _, d := range tech.Devices() {
		fmt.Fprintf(&b, "\t\t{%g, %g},\n", tb.RSquare[d][tech.Rise], tb.RSquare[d][tech.Fall])
	}
	fmt.Fprintf(&b, "\t},\n\tCurves: [4][2]delay.Curve{\n")
	for _, d := range tech.Devices() {
		fmt.Fprintf(&b, "\t\t{\n")
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			c := tb.Curve(d, tr)
			if c.Ratio == nil {
				fmt.Fprintf(&b, "\t\t\t{},\n") // device absent from the technology
				continue
			}
			fmt.Fprintf(&b, "\t\t\t{Ratio: %#v, RMult: %#v, TFactor: %#v},\n", c.Ratio, c.RMult, c.TFactor)
		}
		fmt.Fprintf(&b, "\t\t},\n")
	}
	fmt.Fprintf(&b, "\t},\n}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		return err
	}
	_, err = w.Write(src)
	return err
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		}
		return -1
	}, s)
}
