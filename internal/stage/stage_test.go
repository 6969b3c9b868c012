package stage

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// idx is a node's index as stage records hold it.
func idx(n *netlist.Node) int32 { return int32(n.Index) }

// invNet builds an nMOS inverter and returns (net, in, out).
func invNet() (*netlist.Network, *netlist.Node, *netlist.Node) {
	p := tech.NMOS4()
	nw := netlist.New("inv", p)
	in, out := nw.Node("in"), nw.Node("out")
	nw.MarkInput(in)
	nw.AddTrans(tech.NEnh, in, out, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 0, 4*p.MinL)
	return nw, in, out
}

func TestToNodeInverter(t *testing.T) {
	nw, _, out := invNet()
	fall := ToNode(nw, out, tech.Fall, Options{})
	if len(fall.Stages) != 1 {
		t.Fatalf("fall stages = %d, want 1", len(fall.Stages))
	}
	st := fall.Stages[0]
	if st.Source() != idx(nw.GND()) || st.Target != idx(out) || len(st.Path()) != 1 {
		t.Errorf("bad fall stage: %v", st)
	}
	if err := st.Validate(); err != nil {
		t.Error(err)
	}
	rise := ToNode(nw, out, tech.Rise, Options{})
	if len(rise.Stages) != 1 {
		t.Fatalf("rise stages = %d, want 1", len(rise.Stages))
	}
	if rise.Stages[0].Source() != idx(nw.Vdd()) {
		t.Errorf("rise source = %v, want Vdd", rise.Stages[0].Source())
	}
	if nw.Trans[rise.Stages[0].Path()[0].Trans].Type != tech.NDep {
		t.Error("rise should go through the depletion load")
	}
}

func TestToNodeRespectsOracle(t *testing.T) {
	nw, _, out := invNet()
	off := func(*netlist.Trans) Conduction { return Off }
	if res := ToNode(nw, out, tech.Fall, Options{Oracle: off}); len(res.Stages) != 0 {
		t.Error("all-off oracle should yield no stages")
	}
}

func TestToNodeRespectsFlow(t *testing.T) {
	nw, _, out := invNet()
	nw.Trans[0].Flow = netlist.FlowOff
	if res := ToNode(nw, out, tech.Fall, Options{}); len(res.Stages) != 0 {
		t.Error("FlowOff should block the pulldown path")
	}
}

// stackNet builds a 2-high nMOS NAND pulldown: GND -(g=b)- mid -(g=a)- out,
// with a depletion pullup on out.
func stackNet() (*netlist.Network, *netlist.Trans, *netlist.Node) {
	p := tech.NMOS4()
	nw := netlist.New("nand", p)
	a, b := nw.Node("a"), nw.Node("b")
	nw.MarkInput(a)
	nw.MarkInput(b)
	out, mid := nw.Node("out"), nw.Node("mid")
	ta := nw.AddTrans(tech.NEnh, a, out, mid, 0, 0)
	nw.AddTrans(tech.NEnh, b, mid, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 0, 4*p.MinL)
	return nw, ta, out
}

func TestThroughStack(t *testing.T) {
	nw, ta, out := stackNet()
	res := Through(nw, ta, tech.Fall, Options{})
	// Expect at least a stage targeting out (GND→mid→out) with trigger ta.
	var found *Stage
	for _, st := range res.Stages {
		if st.Target == idx(out) && st.Source() == idx(nw.GND()) {
			found = st
		}
		if int(st.Trigger()) != ta.Index {
			t.Errorf("stage %v has wrong trigger", st)
		}
		if err := st.Validate(); err != nil {
			t.Errorf("stage %v: %v", st, err)
		}
	}
	if found == nil {
		t.Fatalf("no GND→out stage among %d stages", len(res.Stages))
	}
	if len(found.Path()) != 2 {
		t.Errorf("GND→out path length = %d, want 2", len(found.Path()))
	}
}

func TestThroughRespectsDepthCap(t *testing.T) {
	nw, ta, _ := stackNet()
	res := Through(nw, ta, tech.Fall, Options{MaxDepth: 1})
	for _, st := range res.Stages {
		if len(st.Path()) > 1 {
			t.Errorf("stage exceeds depth cap: %v", st)
		}
	}
}

// A record keeps its path length in 16 bits: the longest path any MaxDepth
// admits must still fit, and a longer one must be cut, not wrapped.
func TestDepthCapFitsRecord(t *testing.T) {
	nw := netlist.New("chain", tech.NMOS4())
	g := nw.Node("g")
	nw.MarkInput(g)
	prev := nw.GND()
	var at [2]*netlist.Node // the nodes math.MaxUint16 and math.MaxUint16+1 devices from GND
	for i := 1; i <= math.MaxUint16+1; i++ {
		n := nw.Node("n" + strconv.Itoa(i))
		nw.AddTrans(tech.NEnh, g, prev, n, 0, 0)
		if i >= math.MaxUint16 {
			at[i-math.MaxUint16] = n
		}
		prev = n
	}
	opt := Options{MaxDepth: 1 << 20}
	res := ToNode(nw, at[0], tech.Fall, opt)
	if len(res.Stages) != 1 || len(res.Stages[0].Path()) != math.MaxUint16 || len(res.Stages[0].PathCap()) != math.MaxUint16 {
		t.Fatalf("longest admissible path: %d stages", len(res.Stages))
	}
	if err := res.Stages[0].Validate(); err != nil {
		t.Error(err)
	}
	if res := ToNode(nw, at[1], tech.Fall, opt); len(res.Stages) != 0 || !res.Truncated {
		t.Errorf("path of %d elements: %d stages, truncated %v", math.MaxUint16+1, len(res.Stages), res.Truncated)
	}
}

func TestFromNodePassChain(t *testing.T) {
	p := tech.NMOS4()
	nw := netlist.New("pass", p)
	in, ctl := nw.Node("in"), nw.Node("ctl")
	nw.MarkInput(in)
	nw.MarkInput(ctl)
	n1, n2 := nw.Node("n1"), nw.Node("n2")
	nw.AddTrans(tech.NEnh, ctl, in, n1, 0, 0)
	nw.AddTrans(tech.NEnh, ctl, n1, n2, 0, 0)
	res := FromNode(nw, in, tech.Rise, Options{})
	if len(res.Stages) != 2 {
		t.Fatalf("stages = %d, want 2 (n1 and n2)", len(res.Stages))
	}
	for _, st := range res.Stages {
		if st.Source() != idx(in) || st.Trigger() != NoTrans {
			t.Errorf("bad channel stage: %v", st)
		}
		if err := st.Validate(); err != nil {
			t.Error(err)
		}
	}
	// Farthest stage has two elements.
	last := res.Stages[len(res.Stages)-1]
	if last.Target != idx(n2) || len(last.Path()) != 2 {
		t.Errorf("last stage should reach n2 in 2 hops: %v", last)
	}
}

func TestSideLoadsCollectFanout(t *testing.T) {
	// A pass transistor hangs a side branch off the inverter output; the
	// fall stage for the output should count the branch capacitance.
	nw, _, out := invNet()
	p := nw.Tech
	side := nw.Node("side")
	always := nw.Node("always")
	nw.MarkInput(always)
	nw.AddTrans(tech.NEnh, always, out, side, 0, 0)
	res := ToNode(nw, out, tech.Fall, Options{})
	if len(res.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(res.Stages))
	}
	st := res.Stages[0]
	if len(st.Side()) != 1 || st.Side()[0].Node != idx(side) {
		t.Fatalf("side loads = %v, want [side]", st.Side())
	}
	if st.Side()[0].Attach != 1 {
		t.Errorf("side load attaches at %d, want 1 (the output)", st.Side()[0].Attach)
	}
	wantC := nw.NodeCap(side)
	if math.Abs(st.Side()[0].C-wantC) > 1e-21 {
		t.Errorf("side load C = %g, want %g", st.Side()[0].C, wantC)
	}
	if st.Side()[0].R != p.R(tech.NEnh, tech.Fall, p.MinW, p.MinL) {
		t.Errorf("side load R = %g", st.Side()[0].R)
	}
	// TotalC = out + side.
	want := nw.NodeCap(out) + wantC
	if got := st.TotalC(); math.Abs(got-want) > 1e-21 {
		t.Errorf("TotalC = %g, want %g", got, want)
	}
}

func TestSideLoadsStopAtSources(t *testing.T) {
	// Capacitance behind a rail or input must not load the stage.
	nw, _, out := invNet()
	other := nw.Node("other")
	g2 := nw.Node("g2")
	// A second pulldown from GND to another node: reachable only through
	// the GND rail, which is an ideal source.
	nw.AddTrans(tech.NEnh, g2, other, nw.GND(), 0, 0)
	res := ToNode(nw, out, tech.Fall, Options{})
	st := res.Stages[0]
	for _, sl := range st.Side() {
		if sl.Node == idx(other) {
			t.Error("side loading leaked through the GND rail")
		}
	}
}

func TestSeriesR(t *testing.T) {
	nw, ta, out := stackNet()
	res := Through(nw, ta, tech.Fall, Options{})
	for _, st := range res.Stages {
		if st.Target != idx(out) {
			continue
		}
		r := st.SeriesR(nw)
		want := 2 * nw.Tech.RSquare(tech.NEnh, tech.Fall)
		if math.Abs(r-want) > 1e-9 {
			t.Errorf("SeriesR = %g, want %g", r, want)
		}
	}
}

func TestMaxPathsTruncation(t *testing.T) {
	// A ladder of parallel pulldowns gives exponentially many paths;
	// MaxPaths must cap the enumeration and set Truncated.
	p := tech.NMOS4()
	nw := netlist.New("ladder", p)
	g := nw.Node("g")
	nw.MarkInput(g)
	prev := nw.GND()
	for i := 0; i < 6; i++ {
		next := nw.Node(string(rune('a' + i)))
		// Two parallel devices per rung.
		nw.AddTrans(tech.NEnh, g, prev, next, 0, 0)
		nw.AddTrans(tech.NEnh, g, prev, next, 0, 0)
		prev = next
	}
	res := ToNode(nw, prev, tech.Fall, Options{MaxPaths: 10})
	if len(res.Stages) > 10 {
		t.Errorf("MaxPaths exceeded: %d", len(res.Stages))
	}
	if !res.Truncated {
		t.Error("Truncated should be set")
	}
}

func TestValidateCatchesBrokenStages(t *testing.T) {
	nw, _, out := invNet()
	res := ToNode(nw, out, tech.Fall, Options{})
	st := res.Stages[0]
	// broken hand-assembles a one-record slab with st's identity.
	broken := func(path []Element, side []SideLoad) *Stage {
		sl := &Slab{Stages: make([]Stage, 1), path: path, side: side}
		b := &sl.Stages[0]
		b.slab, b.body, b.Target, b.transition = sl, sl, st.Target, st.transition
		b.nPath, b.nSide = uint16(len(path)), uint32(len(side))
		return b
	}
	if broken(nil, nil).Validate() == nil {
		t.Error("empty path should fail validation")
	}
	if broken(st.Path(), []SideLoad{{Node: idx(out), Attach: 99, C: 1}}).Validate() == nil {
		t.Error("bad attach should fail validation")
	}
}

func TestStageStringAndFormat(t *testing.T) {
	nw, _, out := invNet()
	st := ToNode(nw, out, tech.Fall, Options{}).Stages[0]
	if got, want := st.String(), "n1 -(t0)-> n3 [fall]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := st.Format(nw), "GND -(e g=in)-> out [fall]"; got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

// TestRemap translates a stage through index maps: structure and loading
// carry over, indexes (and what is derived from them) follow the maps.
func TestRemap(t *testing.T) {
	nw, ta, out := stackNet()
	var st *Stage
	for _, s := range Through(nw, ta, tech.Fall, Options{}).Stages {
		if s.Target == idx(out) {
			st = s
		}
	}
	got := st.Remap(func(n int32) int32 { return n + 100 }, func(t int32) int32 { return t + 10 })
	if got.Source() != st.Source()+100 || got.Target != st.Target+100 || got.Trigger() != st.Trigger()+10 {
		t.Errorf("remapped identity = %d/%d/%d", got.Source(), got.Target, got.Trigger())
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
	for i, e := range got.Path() {
		if e.Trans != st.Path()[i].Trans+10 || !got.UsesTrans(int(e.Trans)) {
			t.Errorf("path element %d = %+v", i, e)
		}
	}
	if got.UsesTrans(int(st.Path()[0].Trans)) && st.Path()[0].Trans+10 != st.Path()[1].Trans {
		t.Error("remapped stage still claims the original device")
	}
	if got.Driver() != st.Driver() || got.TotalC() != st.TotalC() || len(got.Low()) != len(st.Low()) {
		t.Error("derived loading changed under Remap")
	}
}
