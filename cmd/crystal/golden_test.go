package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// update rewrites the golden files instead of diffing against them:
//
//	go test ./cmd/crystal -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden report files")

// TestGoldenReports pins the exact CLI output — report format and timing
// numbers — for every delay model, for characterized tables, and for the
// -edits re-analysis mode. Timing regressions and incidental format drift
// both show up as a diff here.
func TestGoldenReports(t *testing.T) {
	dlatch := func(model, tables string) config {
		return config{
			simFile:  testdataPath + "dlatch.sim",
			techName: "nmos-4u", model: model, tables: tables,
			rise: "d", fall: "d", fix: "wr=1",
			inSlope: 1e-9, top: 2,
		}
	}
	cases := []struct {
		name string
		cfg  config
	}{
		{"dlatch-lumped", dlatch("lumped", "analytic")},
		{"dlatch-rc", dlatch("rc", "analytic")},
		{"dlatch-slope-char", dlatch("slope", "char")},
		{"mux2-cmos-lumped", config{
			simFile:  testdataPath + "mux2-cmos.sim",
			techName: "cmos-3u", model: "lumped", tables: "analytic",
			inSlope: 1e-9, top: 3, deadline: 100e-9,
		}},
		{"dlatch-edits", func() config {
			c := dlatch("slope", "analytic")
			c.edits = testdataPath + "dlatch-edits.script"
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if _, err := run(tc.cfg, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			// The sim file path appears in the report; normalize it so the
			// golden file is independent of the test's working directory.
			got := strings.ReplaceAll(out.String(), testdataPath, "testdata/")
			golden := testdataPath + "golden/" + tc.name + ".txt"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s:\n--- want ---\n%s\n--- got ---\n%s",
					golden, want, got)
			}
		})
	}
}

// TestGoldenWorkersIdentity pins the -workers contract at the CLI surface:
// the report (paths, arrival times, slopes, slack, incremental status
// lines) is byte-identical whether the drain runs serially or on eight
// workers. The -edits variant routes the incremental re-analysis through
// the parallel scheduler too.
func TestGoldenWorkersIdentity(t *testing.T) {
	base := config{
		simFile:  testdataPath + "dlatch.sim",
		techName: "nmos-4u", model: "slope", tables: "analytic",
		rise: "d", fall: "d", fix: "wr=1",
		inSlope: 1e-9, top: 3, deadline: 100e-9,
	}
	withEdits := base
	withEdits.edits = testdataPath + "dlatch-edits.script"
	cases := []struct {
		name string
		cfg  config
	}{
		{"single-run", base},
		{"with-edits", withEdits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outs := map[int]string{}
			for _, workers := range []int{1, 8} {
				cfg := tc.cfg
				cfg.workers = workers
				var out strings.Builder
				if _, err := run(cfg, &out); err != nil {
					t.Fatalf("workers=%d: %v\n%s", workers, err, out.String())
				}
				outs[workers] = out.String()
			}
			if outs[1] != outs[8] {
				t.Errorf("report differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					outs[1], outs[8])
			}
		})
	}
}

// TestEditScriptErrors pins the script parser's error reporting: bad
// lines fail with the source name and line number.
func TestEditScriptErrors(t *testing.T) {
	cases := []string{
		"frobnicate q",           // unknown edit
		"add zmos g a b",         // unknown device
		"add nenh g a",           // wrong arity
		"add nenh g a b 4e-6",    // wrong arity (w without l)
		"wire a b ohms",          // bad number
		"del seven",              // bad index
		"resize 0 wide 2e-6",     // bad number
		"cap",                    // wrong arity
		"retype q tristate",      // unknown kind
		"resize 999 4e-6 0\nrun", // valid parse, Reanalyze rejects the index
	}
	for _, script := range cases {
		t.Run(strings.Fields(script)[0], func(t *testing.T) {
			var out strings.Builder
			cfg := config{
				simFile:  testdataPath + "dlatch.sim",
				techName: "nmos-4u", model: "slope", tables: "analytic",
				rise: "d", fall: "d", fix: "wr=1",
				inSlope: 1e-9, top: 1,
				watch: true, watchIn: strings.NewReader(script),
			}
			if _, err := run(cfg, &out); err == nil {
				t.Errorf("script %q should fail", script)
			} else if !strings.Contains(err.Error(), "stdin") {
				t.Errorf("error %q should name the script source", err)
			}
		})
	}
}

// TestWatchMode drives the stdin re-analysis loop and checks that each
// `run` barrier produces a fresh report and that incremental status lines
// appear.
func TestWatchMode(t *testing.T) {
	script := `
# first batch: small geometry tweak
resize 2 4e-6 2e-6
run
cap out 2e-14
run
`
	var out strings.Builder
	cfg := config{
		simFile:  testdataPath + "dlatch.sim",
		techName: "nmos-4u", model: "slope", tables: "analytic",
		rise: "d", fall: "d", fix: "wr=1",
		inSlope: 1e-9, top: 1,
		watch: true, watchIn: strings.NewReader(script),
	}
	if _, err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	rep := out.String()
	if got := strings.Count(rep, "timing report"); got != 3 {
		t.Errorf("want 3 reports (initial + 2 barriers), got %d:\n%s", got, rep)
	}
	// The geometry tweak dirties the whole storage loop (the latch is
	// tiny), falling back to full; the output-cap batch stays incremental.
	if got := strings.Count(rep, "re-analysis ("); got != 2 {
		t.Errorf("want 2 re-analysis status lines, got %d:\n%s", got, rep)
	}
	if got := strings.Count(rep, "re-analysis (incremental"); got != 1 {
		t.Errorf("want 1 incremental status line, got %d:\n%s", got, rep)
	}
}
