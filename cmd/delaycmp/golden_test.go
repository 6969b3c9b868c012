package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// update rewrites the EXPERIMENTS.md blocks instead of diffing against them:
//
//	go test ./cmd/delaycmp -run TestGoldenExperiments -update
var update = flag.Bool("update", false, "rewrite the EXPERIMENTS.md blocks")

// experimentsDoc is the golden file: each block in it sits under a marker
// line naming the delaycmp command line whose output it is.
const experimentsDoc = "../../EXPERIMENTS.md"

var markerRE = regexp.MustCompile("^<!-- delaycmp (.*) -->$")

// docBlock is one marked block of experimentsDoc: its marker's arguments
// and the lines [from, to) between its fences.
type docBlock struct {
	args     string
	from, to int
}

// docBlocks finds every marked block in lines. A marker must be followed
// by an opening fence, and the block ends at the next fence.
func docBlocks(lines []string) ([]docBlock, error) {
	var blocks []docBlock
	for i, line := range lines {
		m := markerRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if i+1 == len(lines) || lines[i+1] != "```" {
			return nil, fmt.Errorf("line %d: marker %q is not followed by a ``` line", i+1, line)
		}
		n := slices.Index(lines[i+2:], "```")
		if n < 0 {
			return nil, fmt.Errorf("line %d: block under %q is not closed", i+2, line)
		}
		blocks = append(blocks, docBlock{m[1], i + 2, i + 2 + n})
	}
	return blocks, nil
}

// TestGoldenExperiments pins every number EXPERIMENTS.md reports for the
// deterministic experiments: each marked block must read exactly as its
// command line's output, parsed by parseArgs so the defaults are the ones
// a user gets. Numeric regressions in the models, the analog reference,
// the shipped tables or the RC-tree bounds all show up as diffs here.
// E6 reports wall-clock throughput, so it has no block; every other
// experiment must have one.
func TestGoldenExperiments(t *testing.T) {
	data, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	blocks, err := docBlocks(lines)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	outputs := make([][]string, len(blocks))
	for i, b := range blocks {
		t.Run(b.args, func(t *testing.T) {
			fs := flag.NewFlagSet("delaycmp", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cfg, err := parseArgs(fs, strings.Fields(b.args))
			if err != nil {
				t.Fatalf("marker %q: %v", b.args, err)
			}
			for _, e := range strings.Split(cfg.expList, ",") {
				covered[e] = true
			}
			var out strings.Builder
			if err := run(cfg, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			outputs[i] = strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			if got, want := strings.Join(outputs[i], "\n"), strings.Join(lines[b.from:b.to], "\n"); !*update && got != want {
				t.Errorf("%s line %d: block differs from `delaycmp %s`:\n--- want ---\n%s\n--- got ---\n%s",
					experimentsDoc, b.from+1, b.args, want, got)
			}
		})
	}
	if covered["all"] || covered["e6"] {
		t.Errorf("a block runs e6, whose wall-clock columns no golden text can pin")
	}
	for _, e := range experimentNames {
		if e != "e6" && !covered[e] {
			t.Errorf("no block in %s runs %s", experimentsDoc, e)
		}
	}
	if !*update || t.Failed() {
		return
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		lines = slices.Replace(lines, blocks[i].from, blocks[i].to, outputs[i]...)
	}
	if err := os.WriteFile(experimentsDoc, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenWorkersIdentity: experiment tables are byte-identical whether
// RunMany's rows run one at a time (GOMAXPROCS=1) or fan out (GOMAXPROCS=4).
// E7 chains one stage database through the three models within each row,
// so a database that leaked across rows would show here.
func TestGoldenWorkersIdentity(t *testing.T) {
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out strings.Builder
		cfg := config{techName: "nmos-4u", tables: "analytic", format: "table", expList: "e3,e4,e7"}
		if err := run(cfg, &out); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return out.String()
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Errorf("output differs between GOMAXPROCS=1 and GOMAXPROCS=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestRunErrors(t *testing.T) {
	for _, cfg := range []config{
		{techName: "ge-5", tables: "analytic", expList: "e1"},
		{techName: "nmos-4u", tables: "psychic", expList: "e1"},
		{techName: "nmos-4u", tables: "analytic", expList: "e10"},
		{techName: "nmos-4u", tables: "analytic", expList: "e1,e3x"},
	} {
		var out strings.Builder
		if err := run(cfg, &out); err == nil {
			t.Errorf("config %+v should fail", cfg)
		} else if out.Len() != 0 {
			t.Errorf("config %+v printed %q before failing", cfg, out.String())
		}
	}
	// An unknown experiment's error names the valid ones.
	err := run(config{techName: "nmos-4u", tables: "analytic", expList: "e10"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), `"e10"`) || !strings.Contains(err.Error(), "e1, e2, e3, e4, e5, e6, e7, e8, e9, or all") {
		t.Errorf("unknown experiment error = %v, want it to name e10 and list e1..e9 and all", err)
	}
}

// TestStrayArgumentRejected: a positional argument after the flags is a
// usage error naming it, not an experiment silently dropped.
func TestStrayArgumentRejected(t *testing.T) {
	fs := flag.NewFlagSet("delaycmp", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	_, err := parseArgs(fs, []string{"-exp", "e8", "e2"})
	if err == nil || !strings.Contains(err.Error(), `"e2"`) {
		t.Errorf("delaycmp -exp e8 e2: err = %v, want an error naming \"e2\"", err)
	}
}
