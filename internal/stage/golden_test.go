package stage

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

var update = flag.Bool("update", false, "rewrite testdata/slab_golden.txt")

// goldenSpecs is one circuit per generator family, at the sizes the
// hierarchical identity suite uses.
var goldenSpecs = []string{
	"alu:4", "arraymul:4", "barrel:4", "bus:6", "carrysel:8", "chip:8",
	"datapath:8", "decoder:3", "fanout:4", "invchain:6", "manchester:6",
	"passchain:6", "pla:4,8,4", "polywire:8", "regfile:4,4", "ripple:6",
	"shiftreg:6", "superbuffer",
}

// settledOracle is the static-sensitization oracle the analyzer builds:
// inputs alternately low and high, settled, then every device classified
// by its settled gate value.
func settledOracle(nw *netlist.Network) Oracle {
	sim := switchsim.New(nw)
	for i, n := range nw.Inputs() {
		if err := sim.SetInput(n, switchsim.FromBool(i%2 == 0)); err != nil {
			panic(err)
		}
	}
	sim.Settle()
	static := sim.Snapshot()
	conduct := make([]Conduction, len(nw.Trans))
	for i, t := range nw.Trans {
		switch g := static[t.Gate.Index]; {
		case t.AlwaysOn():
			conduct[i] = On
		case g == switchsim.VX:
			conduct[i] = Maybe
		case g == switchsim.FromBool(t.ConductsOn() == 1):
			conduct[i] = On
		default:
			conduct[i] = Off
		}
	}
	return func(t *netlist.Trans) Conduction { return conduct[t.Index] }
}

// slabHash feeds into h every value a consumer can read of a slab through
// its accessors: each record's identity (Source, Target, Trigger), its
// derived fields (SourceInputIndex, Transition, Driver, DriverType), its
// path, side loads and path capacitances (floats by bit pattern), and the
// truncation flag. How the records lay their parts out in memory is not
// part of it.
func slabHash(h hash.Hash, s *Slab) {
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b := uint64(0)
	if s.Truncated {
		b = 1
	}
	u(b)
	u(uint64(len(s.Stages)))
	for i := range s.Stages {
		st := &s.Stages[i]
		u(uint64(uint32(st.Source())))
		u(uint64(uint32(st.Target)))
		u(uint64(uint32(st.Trigger())))
		u(uint64(st.SourceInputIndex()))
		u(uint64(st.Transition()))
		u(uint64(st.Driver()))
		u(uint64(st.DriverType()))
		u(uint64(len(st.Low())))
		u(uint64(len(st.Path())))
		for _, e := range st.Path() {
			u(uint64(uint32(e.Trans)))
			u(uint64(uint32(e.From)))
			u(uint64(uint32(e.To)))
		}
		u(uint64(len(st.Side())))
		for _, sl := range st.Side() {
			u(uint64(uint32(sl.Node)))
			u(uint64(uint32(sl.Attach)))
			f(sl.R)
			f(sl.C)
		}
		for _, c := range st.PathCap() {
			f(c)
		}
	}
	h.Write(buf)
}

// dbHash digests every entry of a database: per device its Through slab and
// channel group, per node its Release slab and both From slabs.
func dbHash(nw *netlist.Network, db *DB) string {
	h := sha256.New()
	for ti := range nw.Trans {
		slabHash(h, db.Through(ti))
		g := db.Group(ti)
		var buf []byte
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(g)))
		for _, m := range g {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
		}
		h.Write(buf)
	}
	for ni := range nw.Nodes {
		slabHash(h, db.Release(ni))
		slabHash(h, db.From(ni, tech.Rise))
		slabHash(h, db.From(ni, tech.Fall))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wrapperHash digests the package-level enumerators, one transition per
// call, over every device and node.
func wrapperHash(nw *netlist.Network, opt Options) string {
	h := sha256.New()
	for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
		for _, t := range nw.Trans {
			slabHash(h, resultSlab(Through(nw, t, tr, opt)))
		}
		for _, n := range nw.Nodes {
			slabHash(h, resultSlab(ToNode(nw, n, tr, opt)))
			slabHash(h, resultSlab(FromNode(nw, n, tr, opt)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultSlab recovers the slab a Result's records live in.
func resultSlab(r Result) *Slab {
	if len(r.Stages) == 0 {
		return &Slab{Truncated: r.Truncated}
	}
	return r.Stages[0].slab
}

// goldenCases computes the digest of every case, in a fixed order.
func goldenCases(t *testing.T) [][2]string {
	var out [][2]string
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for _, spec := range goldenSpecs {
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, p.Name, err)
			}
			name := spec + "/" + p.Name
			out = append(out,
				[2]string{name + "/worst", dbHash(nw, NewDB(nw, Options{}))},
				[2]string{name + "/settled", dbHash(nw, NewDB(nw, Options{Oracle: settledOracle(nw)}))})
		}
	}
	// Tight bounds: MaxPaths and MaxDepth both prune, through the database
	// and through the package-level enumerators.
	nw := mustBuild(t, "datapath:8")
	tight := Options{MaxPaths: 3, MaxDepth: 3}
	db := NewDB(nw, tight)
	out = append(out, [2]string{"datapath:8/truncated", dbHash(nw, db)})
	if !db.Truncated() {
		t.Error("tight bounds pruned nothing")
	}
	out = append(out, [2]string{"datapath:8/truncated-wrappers", wrapperHash(nw, tight)})
	nw = mustBuild(t, "passchain:6")
	out = append(out, [2]string{"passchain:6/depth", dbHash(nw, NewDB(nw, Options{MaxDepth: 3}))})
	// Stages with dozens of side loads, attach positions interleaved and
	// tied: past the insertion-sort cutoff, the sort's tie order shows.
	nw = fanNet()
	out = append(out, [2]string{"fan/worst", dbHash(nw, NewDB(nw, Options{}))})
	// Every flow hint, and devices with both channel terminals on one node.
	nw = mustBuild(t, "alu:4")
	for i, tx := range nw.Trans {
		tx.Flow = netlist.Flow(i % 4)
	}
	for i, n := range nw.Nodes {
		if !n.IsSource() && i%5 == 0 {
			nw.AddTrans(tech.NEnh, nw.Nodes[i/2], n, n, 0, 0)
		}
	}
	out = append(out,
		[2]string{"alu:4/flows", dbHash(nw, NewDB(nw, Options{}))},
		[2]string{"alu:4/flows-wrappers", wrapperHash(nw, Options{})})
	return out
}

// fanNet is a three-device pulldown chain whose every node carries five
// two-deep side branches.
func fanNet() *netlist.Network {
	nw := netlist.New("fan", tech.NMOS4())
	g := nw.Node("g")
	nw.MarkInput(g)
	prev := nw.GND()
	for i := range 3 {
		n := nw.Node(fmt.Sprintf("p%d", i))
		nw.AddTrans(tech.NEnh, g, prev, n, 0, 0)
		for j := range 5 {
			s1, s2 := nw.Node(fmt.Sprintf("s%d_%d", i, j)), nw.Node(fmt.Sprintf("t%d_%d", i, j))
			nw.AddTrans(tech.NEnh, g, n, s1, 0, 0)
			nw.AddTrans(tech.NEnh, g, s1, s2, 0, 0)
		}
		prev = n
	}
	return nw
}

func mustBuild(t *testing.T, spec string) *netlist.Network {
	nw, err := gen.Build(spec, tech.NMOS4())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestSlabGolden pins every slab the enumerator builds, bit for bit, to
// digests recorded in testdata/slab_golden.txt: the same stages in the same
// order with the same loading. Regenerate with -update only when a change
// to enumeration is intended.
func TestSlabGolden(t *testing.T) {
	path := filepath.Join("testdata", "slab_golden.txt")
	got := goldenCases(t)
	if *update {
		var b strings.Builder
		for _, c := range got {
			fmt.Fprintf(&b, "%s %s\n", c[0], c[1])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cases, computed %d", len(want), len(got))
	}
	for _, c := range got {
		if want[c[0]] != c[1] {
			t.Errorf("%s: slab digest %s, golden %s", c[0], c[1], want[c[0]])
		}
	}
}
