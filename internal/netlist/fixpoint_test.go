// Corpus coverage for the .sim reader and writer: on every testdata
// netlist and every generator family, WriteSim is a fixpoint after one
// round — the text it writes for a parsed network reads back into a
// network it writes byte for byte again. (Arbitrary input can take a
// second round, see FuzzReadSim.) External test package so it can import
// gen (which itself imports netlist).
package netlist_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// genFamilySpecs sweeps every registered generator family at a small
// size (the same sizes as the core conformance sweep).
var genFamilySpecs = []string{
	"invchain:8", "fanout:6", "passchain:6", "superbuffer", "bus:4",
	"ripple:4", "manchester:4", "barrel:4", "decoder:3", "alu:4",
	"regfile:4,4", "polywire:6", "chip:4", "datapath:4", "shiftreg:4",
	"arraymul:4", "carrysel:8", "pla:4,6,4",
}

// writeSim serializes nw, failing the test on error.
func writeSim(t *testing.T, nw *netlist.Network) string {
	t.Helper()
	var sb strings.Builder
	if err := netlist.WriteSim(&sb, nw); err != nil {
		t.Fatalf("WriteSim: %v", err)
	}
	return sb.String()
}

// checkWriteFixpoint parses src, then requires write(read(write(nw))) to
// equal write(nw) byte for byte. (The first write may differ from src:
// capacitances are re-rounded and directives regrouped.)
func checkWriteFixpoint(t *testing.T, name string, p *tech.Params, src string) {
	t.Helper()
	nw, err := netlist.ReadSim(name, p, strings.NewReader(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	first := writeSim(t, nw)
	back, err := netlist.ReadSim(name, p, strings.NewReader(first))
	if err != nil {
		t.Fatalf("re-parse of written text: %v", err)
	}
	if second := writeSim(t, back); second != first {
		t.Fatalf("WriteSim is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestParallelParseIdentityTestdata runs the fixpoint check over every
// .sim file in testdata/. (The name is kept from when it compared two
// parsers.)
func TestParallelParseIdentityTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sim"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata sim files: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			p := tech.NMOS4()
			if strings.Contains(filepath.Base(file), "cmos") {
				p = tech.CMOS3()
			}
			checkWriteFixpoint(t, filepath.Base(file), p, string(data))
		})
	}
}

// TestParallelParseIdentityGen runs the fixpoint check over every
// generator family, in both technologies, starting from the built
// circuit's own WriteSim text.
func TestParallelParseIdentityGen(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for _, spec := range genFamilySpecs {
			t.Run(p.Name+"/"+strings.ReplaceAll(spec, ":", "-"), func(t *testing.T) {
				t.Parallel()
				nw, err := gen.Build(spec, p)
				if err != nil {
					t.Fatal(err)
				}
				checkWriteFixpoint(t, nw.Name, p, writeSim(t, nw))
			})
		}
	}
}
