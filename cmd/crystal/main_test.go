package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// testdataPath points at the repository-level testdata directory.
const testdataPath = "../../testdata/"

func TestRunDLatch(t *testing.T) {
	var out strings.Builder
	cfg := config{
		simFile: testdataPath + "dlatch.sim",
		// Analytic tables keep the test fast and hermetic.
		techName: "nmos-4u", model: "slope", tables: "analytic",
		rise: "d", fall: "d", fix: "wr=1",
		inSlope: 1e-9, top: 3,
	}
	v, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if v != 0 {
		t.Errorf("violations without a deadline should be 0, got %d", v)
	}
	rep := out.String()
	for _, want := range []string{"crystal: ", "timing report", "path 1:", "out"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestRunHier: -hier on over a replicated-tile chip prints the provenance
// summary (tile 0 fingerprints alone, tiles 1/2 share a class: one
// representative flat, one member stamped), and the path report matches a
// flat run byte for byte — the CLI face of the bit-identity contract.
func TestRunHier(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.ChipGrid(p, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	simPath := filepath.Join(t.TempDir(), "grid.sim")
	f, err := os.Create(simPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteSim(f, nw); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fixed, loopBreak := gen.ChipGridDirectives(8, 3)
	var fix []string
	for name, v := range fixed {
		fix = append(fix, name+"="+v)
	}
	cfg := config{
		simFile:  simPath,
		techName: "nmos-4u", model: "slope", tables: "analytic",
		fix:       strings.Join(fix, ","),
		loopbreak: strings.Join(loopBreak, ","),
		inSlope:   1e-9, top: 3, hier: "on",
	}
	var out strings.Builder
	if _, err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "crystal: hier: 3 instances, 1 stamped, 2 flat") {
		t.Errorf("missing hier summary line:\n%s", out.String())
	}

	cfg.hier = "off"
	var flat strings.Builder
	if _, err := run(cfg, &flat); err != nil {
		t.Fatal(err)
	}
	// Identical paths and arrivals; only the hier summary and the stage-
	// evaluation count in the header may differ (stamping evaluates fewer
	// stages — that is the speedup).
	norm := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "crystal: hier:") ||
				strings.HasPrefix(line, "timing report:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if norm(out.String()) != norm(flat.String()) {
		t.Errorf("hier and flat reports differ beyond the evaluation count:\n--- hier ---\n%s\n--- flat ---\n%s",
			out.String(), flat.String())
	}
}

func TestRunWithDeadline(t *testing.T) {
	var out strings.Builder
	cfg := config{
		simFile:  testdataPath + "mux2-cmos.sim",
		techName: "cmos-3u", model: "rc", tables: "analytic",
		inSlope: 1e-9, top: 3, deadline: 1e-12, // everything violates
	}
	v, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Errorf("1 ps deadline should violate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "slack report") {
		t.Error("missing slack report")
	}
}

func TestRunERCFlag(t *testing.T) {
	var out strings.Builder
	cfg := config{
		simFile:  testdataPath + "dynamic-stage.sim",
		techName: "nmos-4u", model: "lumped", tables: "analytic",
		inSlope: 1e-9, top: 1, runERC: true,
		fix: "phi=0,b=1", rise: "a",
	}
	if _, err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "electrical rules") {
		t.Error("missing ERC section")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []config{
		{},                    // no sim file
		{simFile: "nope.sim"}, // missing file
		{simFile: testdataPath + "dlatch.sim", techName: "ge-5"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "mystery"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "psychic"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", fix: "wr"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", fix: "wr=7"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", fix: "ghost=1"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", fix: "wr=X"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", loopbreak: "ghost"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", rise: "ghost"},
		{simFile: testdataPath + "dlatch.sim", techName: "nmos-4u", tables: "analytic", model: "rc", hier: "maybe"},
	}
	for i, cfg := range cases {
		var out strings.Builder
		if _, err := run(cfg, &out); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestGoldenDLatchReport(t *testing.T) {
	// Exact-output regression guard for the report format and the
	// analytic-table timing numbers. Regenerate with:
	//   go run ./cmd/crystal -sim testdata/dlatch.sim -tables analytic \
	//     -model slope -rise d -fall d -fix wr=1 -top 2 \
	//     > testdata/golden/dlatch-report.txt
	want, err := os.ReadFile(testdataPath + "golden/dlatch-report.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	cfg := config{
		simFile:  testdataPath + "dlatch.sim",
		techName: "nmos-4u", model: "slope", tables: "analytic",
		rise: "d", fall: "d", fix: "wr=1",
		inSlope: 1e-9, top: 2,
	}
	if _, err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// The sim file path appears in the report; normalize it.
	got = strings.ReplaceAll(got, testdataPath, "testdata/")
	if got != string(want) {
		t.Errorf("golden mismatch:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("empty = %v", got)
	}
	if got := splitList(" a, b ,,c "); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("got %v", got)
	}
}
