package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// update rewrites the golden files instead of diffing against them:
//
//	go test ./cmd/characterize -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden output files")

// TestGoldenTables pins the characterization output in every format —
// the table humans read, the CSV plots consume and the Go source
// internal/charlib commits. The analog-reference sweep is deterministic, so
// every Reff and Rmult value is pinned exactly. The Go cases run at default
// options and their goldens are the committed tables themselves, so
// charlib.Default stays bit-identical to a fresh Characterize.
func TestGoldenTables(t *testing.T) {
	cases := []struct {
		name   string
		cfg    config
		golden string // default testdata/golden/<name>.txt
	}{
		{name: "nmos-table", cfg: config{techName: "nmos-4u", format: "table", ratioList: "0,1,4", load: 100e-15}},
		{name: "nmos-csv", cfg: config{techName: "nmos-4u", format: "csv", ratioList: "0,1,4", load: 100e-15}},
		{name: "nmos-go", cfg: config{techName: "nmos-4u", format: "go", load: 100e-15},
			golden: "../../internal/charlib/tables_nmos4u.go"},
		{name: "cmos-go", cfg: config{techName: "cmos-3u", format: "go", load: 100e-15},
			golden: "../../internal/charlib/tables_cmos3u.go"},
		{name: "nmos-compare", cfg: config{techName: "nmos-4u", format: "table", ratioList: "0,4", load: 100e-15, compare: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.cfg, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			golden, fix := tc.golden, "run with -update"
			if golden == "" {
				golden = "testdata/golden/" + tc.name + ".txt"
			} else {
				fix = "run go generate ./internal/charlib"
			}
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (%s to create)", err, fix)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s (%s):\n--- want ---\n%s\n--- got ---\n%s",
					golden, fix, want, got)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	for _, cfg := range []config{
		{techName: "ge-5", format: "table"},
		{techName: "nmos-4u", format: "sketch"},
		{techName: "nmos-4u", format: "table", ratioList: "0,zebra"},
	} {
		if err := run(cfg, &strings.Builder{}); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}
