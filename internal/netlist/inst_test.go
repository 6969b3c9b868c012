// Instance annotation coverage: the @ inst .sim directive (round trip
// and exact errors), the optional snapshot sections
// (round trip, byte-compatibility for instance-free files; their
// corruption classes sit in TestSnapshotRejects), and Import's instance
// recording.
package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/tech"
)

const instSampleSim = `| units: 100 tech: nmos inst-sample
e in mid GND 2 2
d mid Vdd mid 8 2
e mid out GND 2 2
d out Vdd out 8 2
@ in in
@ out out
@ inst inv0 0 2
@ inst inv1 2 4
`

// instNetwork returns a checked network carrying instance annotations.
func instNetwork(t testing.TB, p *tech.Params) *Network {
	t.Helper()
	nw, err := ReadSim("inst", p, strings.NewReader(instSampleSim))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestReadSimInstances(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	want := []Instance{{"inv0", 0, 2}, {"inv1", 2, 4}}
	if len(nw.Instances) != len(want) {
		t.Fatalf("got %d instances, want %d", len(nw.Instances), len(want))
	}
	for i, w := range want {
		if nw.Instances[i] != w {
			t.Errorf("instance %d: got %+v, want %+v", i, nw.Instances[i], w)
		}
	}
}

// TestSimInstanceRoundTrip: WriteSim emits @ inst lines that ReadSim
// reproduces exactly.
func TestSimInstanceRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	var sb strings.Builder
	if err := WriteSim(&sb, nw); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	serial, err := ReadSim("back", p, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Instances) != 2 || serial.Instances[0] != nw.Instances[0] || serial.Instances[1] != nw.Instances[1] {
		t.Fatalf("serial round trip mangled instances: %+v", serial.Instances)
	}
	clone := nw.Clone()
	if derr := DiffNetworks(nw, clone); derr != nil {
		t.Fatalf("clone dropped instances: %v", derr)
	}
}

// TestSimInstanceErrors pins the parser's exact rejection of malformed
// @ inst directives, including the upper bound against the devices read
// so far.
func TestSimInstanceErrors(t *testing.T) {
	p := tech.NMOS4()
	cases := []struct {
		name, text, want string
	}{
		{"missing range", "e a b GND\n@ inst x 0\n", "sim bad:2: inst directive needs a path and a transistor range"},
		{"bad lo", "e a b GND\n@ inst x q 1\n", `sim bad:2: bad instance range "q" "1"`},
		{"bad hi", "e a b GND\n@ inst x 0 q\n", `sim bad:2: bad instance range "0" "q"`},
		{"negative lo", "e a b GND\n@ inst x -1 1\n", `sim bad:2: bad instance range "-1" "1"`},
		{"inverted range", "e a b GND\n@ inst x 1 0\n", `sim bad:2: bad instance range "1" "0"`},
		{"range past count", "e a b GND\n@ inst x 0 2\n", `sim bad:2: bad instance range "0" "2"`},
	}
	for _, tc := range cases {
		_, err := ReadSim("bad", p, strings.NewReader(tc.text))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %s", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotInstanceRoundTrip: instances survive the snapshot through
// both byte sources.
func TestSnapshotInstanceRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	hash := sha256.Sum256([]byte(instSampleSim))
	data := snapshotBytes(t, nw, hash)
	bothSources(t, func(t *testing.T, load loadFunc) {
		got, gotHash, err := load(data, p)
		if err != nil {
			t.Fatal(err)
		}
		if gotHash != hash {
			t.Fatal("hash mangled")
		}
		if derr := DiffNetworks(nw, got); derr != nil {
			t.Fatal(derr)
		}
	})
}

// TestSnapshotInstanceFreeBytes: a network without instances must write
// exactly the ten fixed sections — the instance sections may not appear,
// so instance-free files stay byte-compatible with earlier readers.
func TestSnapshotInstanceFreeBytes(t *testing.T) {
	p := tech.NMOS4()
	data, _, _ := sampleBytes(t, p)
	count := binary.LittleEndian.Uint32(data[12:16])
	if count != 10 {
		t.Fatalf("instance-free file has %d sections, want 10", count)
	}
	for i := 0; i < int(count); i++ {
		id := binary.LittleEndian.Uint32(data[v2HeaderSize+i*v2SectionSize:])
		if id == secInst || id == secInstPath {
			t.Fatalf("instance-free file emitted section %d", id)
		}
	}
}

// TestImportRecordsInstances: each Import call stamps one instance per
// nested child (rebased, path-prefixed) plus one covering the whole
// import, children before parents, and ranges that Check accepts.
func TestImportRecordsInstances(t *testing.T) {
	p := tech.NMOS4()
	leaf := New("leaf", p)
	in, out := leaf.Node("a"), leaf.Node("z")
	leaf.MarkInput(in)
	leaf.AddTrans(tech.NEnh, in, out, leaf.GND(), 4e-6, 2e-6)
	leaf.AddTrans(tech.NDep, out, out, leaf.Vdd(), 2e-6, 8e-6)

	mid := New("mid", p)
	if err := mid.Import(leaf, "u0/", nil); err != nil {
		t.Fatal(err)
	}
	if err := mid.Import(leaf, "u1/", nil); err != nil {
		t.Fatal(err)
	}

	top := New("top", p)
	if err := top.Import(mid, "m/", nil); err != nil {
		t.Fatal(err)
	}
	want := []Instance{
		{"m/u0/", 0, 2},
		{"m/u1/", 2, 4},
		{"m/", 0, 4},
	}
	if len(top.Instances) != len(want) {
		t.Fatalf("got %d instances %+v, want %d", len(top.Instances), top.Instances, len(want))
	}
	for i, w := range want {
		if top.Instances[i] != w {
			t.Errorf("instance %d: got %+v, want %+v", i, top.Instances[i], w)
		}
	}
	if err := top.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsBadInstances: Check validates the instance table.
func TestCheckRejectsBadInstances(t *testing.T) {
	p := tech.NMOS4()
	for _, tc := range []struct {
		name string
		inst Instance
	}{
		{"empty path", Instance{"", 0, 1}},
		{"negative lo", Instance{"x", -1, 1}},
		{"inverted", Instance{"x", 2, 1}},
		{"past count", Instance{"x", 0, 99}},
	} {
		nw := instNetwork(t, p)
		nw.Instances = append(nw.Instances, tc.inst)
		if err := nw.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", tc.name, tc.inst)
		}
	}
}
