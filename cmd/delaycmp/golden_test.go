package main

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

// update rewrites the golden files instead of diffing against them:
//
//	go test ./cmd/delaycmp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden report files")

// TestGoldenExperiments pins the exact experiment output — table layout
// and every reported number — for the deterministic experiments over
// analytic tables. E6 is excluded (it reports wall-clock throughput);
// E8's random trees are seeded, so it is deterministic too. Numeric
// regressions in the models, the analog reference or the RC-tree bounds
// all show up as diffs here.
func TestGoldenExperiments(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
	}{
		{"e1-e3-e8", config{techName: "nmos-4u", tables: "analytic", format: "table", expList: "e1,e3,e8"}},
		{"e4-e5", config{techName: "nmos-4u", tables: "analytic", format: "table", expList: "e4,e5"}},
		{"e9-csv", config{techName: "nmos-4u", tables: "analytic", format: "csv", expList: "e9"}},
		{"e2-cmos", config{techName: "cmos-3u", tables: "analytic", format: "table", expList: "e2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.cfg, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			got := out.String()
			golden := "testdata/golden/" + tc.name + ".txt"
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
