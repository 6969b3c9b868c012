package incremental

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

func TestParseEditLine(t *testing.T) {
	cases := []struct {
		line string
		want Edit
	}{
		{"add nenh g a b", Edit{Kind: AddTrans, Dev: tech.NEnh, Gate: "g", A: "a", B: "b"}},
		{"add ndep g a b 4e-6 2e-6", Edit{Kind: AddTrans, Dev: tech.NDep, Gate: "g", A: "a", B: "b", W: 4e-6, L: 2e-6}},
		{"wire a b 1500", Edit{Kind: AddTrans, Dev: tech.RWire, A: "a", B: "b", R: 1500}},
		{"del 7", Edit{Kind: RemoveTrans, Index: 7}},
		{"resize 3 8e-6 0", Edit{Kind: Resize, Index: 3, W: 8e-6}},
		{"cap out 2e-14", Edit{Kind: AddCap, Node: "out", Cap: 2e-14}},
		{"retype q output", Edit{Kind: Retype, Node: "q", NodeKind: netlist.KindOutput}},
	}
	for _, tc := range cases {
		got, err := ParseEditLine(strings.Fields(tc.line))
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

func TestParseEditLineErrors(t *testing.T) {
	cases := []string{
		"frobnicate q",        // unknown edit
		"add zmos g a b",      // unknown device
		"add nenh g a",        // wrong arity
		"add nenh g a b 4e-6", // wrong arity (w without l)
		"add penh g a b x y",  // bad numbers
		"wire a b ohms",       // bad number
		"del seven",           // bad index
		"resize 0 wide 2e-6",  // bad number
		"resize x 1e-6 2e-6",  // bad index
		"cap",                 // wrong arity
		"cap out much",        // bad number
		"retype q tristate",   // unknown kind
	}
	for _, line := range cases {
		if _, err := ParseEditLine(strings.Fields(line)); err == nil {
			t.Errorf("%q should fail", line)
		}
	}
}

// TestReplayScript pins the batching protocol: batches split at `run`
// barriers, comments and blank lines skipped, empty barriers dropped, and
// a trailing batch applied at end of input.
func TestReplayScript(t *testing.T) {
	script := `
# comment only
cap a 1e-15
cap b 2e-15  # trailing comment
run
run
del 0
` // trailing batch without run
	var batches [][]Edit
	err := ReplayScript(strings.NewReader(script), "test", func(_ int, batch []Edit) error {
		batches = append(batches, append([]Edit(nil), batch...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("want 2 batches, got %d: %+v", len(batches), batches)
	}
	if len(batches[0]) != 2 || batches[0][0].Node != "a" || batches[0][1].Node != "b" {
		t.Errorf("batch 0 = %+v", batches[0])
	}
	if len(batches[1]) != 1 || batches[1][0].Kind != RemoveTrans {
		t.Errorf("batch 1 = %+v", batches[1])
	}
}

func TestReplayScriptErrors(t *testing.T) {
	// Parse errors carry the source name and line number.
	err := ReplayScript(strings.NewReader("cap a 1e-15\nbogus line\n"), "s.script",
		func(int, []Edit) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "s.script:2") {
		t.Errorf("want s.script:2 error, got %v", err)
	}
	// Apply errors are wrapped the same way.
	err = ReplayScript(strings.NewReader("cap a 1e-15\nrun\n"), "s.script",
		func(int, []Edit) error { return errTest })
	if err == nil || !strings.Contains(err.Error(), "s.script:2") {
		t.Errorf("want wrapped apply error, got %v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

// TestApplyLeavesLazyNameIndexUnbuilt pins that Apply reads names on its
// clone only. A decoded network builds its name index on the first lookup,
// and crystald's arena serves one such network to every session of a chip:
// a batch validated against it would leave the index built there for good.
// Whether the lookup after Apply is the first one shows in its allocations.
func TestApplyLeavesLazyNameIndexUnbuilt(t *testing.T) {
	p := tech.NMOS4()
	built, err := gen.InverterChain(p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteSnapshot(&buf, built, [32]byte{}); err != nil {
		t.Fatal(err)
	}
	shared, _, err := netlist.ReadSnapshot(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Edit{
		{{Kind: AddCap, Node: "s2", Cap: 1e-15}, {Kind: AddTrans, Dev: tech.NEnh, Gate: "s1", A: "s3", B: "tap"}},
		{{Kind: AddCap, Node: "s2", Cap: 1e-15}, {Kind: Retype, Node: "nowhere", NodeKind: netlist.KindInput}},
	} {
		Apply(shared, batch)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := shared.Lookup("s2")
	runtime.ReadMemStats(&after)
	if n == nil {
		t.Fatal("no node s2")
	}
	if after.Mallocs == before.Mallocs {
		t.Fatal("Apply built the name index of the network it was handed")
	}
}
