package stage

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// stageKey is a structural fingerprint for comparing stages produced by
// independent enumerations (pointer identity cannot hold across them).
func stageKey(nw *netlist.Network, st *Stage) string {
	return nw.Nodes[st.Target].Name + "<" + st.Format(nw)
}

// sameStages compares a slab's records with independent enumerations, one
// per target transition the slab covers, in order.
func sameStages(nw *netlist.Network, a *Slab, parts ...Result) bool {
	var b Result
	for _, p := range parts {
		b.Stages = append(b.Stages, p.Stages...)
		b.Truncated = b.Truncated || p.Truncated
	}
	if len(a.Stages) != len(b.Stages) || a.Truncated != b.Truncated {
		return false
	}
	for i := range a.Stages {
		if stageKey(nw, &a.Stages[i]) != stageKey(nw, b.Stages[i]) {
			return false
		}
	}
	return true
}

// passNet builds a two-transistor pass chain driven by an inverter, rich
// enough to exercise Through/Release/From/Group.
func passNet() (*netlist.Network, *netlist.Node, *netlist.Node) {
	p := tech.NMOS4()
	nw := netlist.New("pass", p)
	in, mid, out := nw.Node("in"), nw.Node("mid"), nw.Node("out")
	g1, g2 := nw.Node("g1"), nw.Node("g2")
	nw.MarkInput(in)
	nw.MarkInput(g1)
	nw.MarkInput(g2)
	nw.AddTrans(tech.NEnh, in, mid, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, mid, nw.Vdd(), mid, 0, 4*p.MinL)
	nw.AddTrans(tech.NEnh, g1, mid, out, 0, 0)
	nw.AddTrans(tech.NEnh, g2, out, nw.GND(), 0, 0)
	return nw, in, out
}

// TestDBMatchesDirectEnumeration pins the database to the plain package
// functions: every accessor must return exactly what Through/ToNode/FromNode
// return for the same key, and a second call must return the same slab.
func TestDBMatchesDirectEnumeration(t *testing.T) {
	nw, in, out := passNet()
	db := NewDB(nw, Options{})
	for _, tx := range nw.Trans {
		if !sameStages(nw, db.Through(tx.Index),
			Through(nw, tx, tech.Rise, Options{}), Through(nw, tx, tech.Fall, Options{})) {
			t.Errorf("Through(%s): db disagrees with direct enumeration", tx.Gate.Name)
		}
	}
	for _, n := range []*netlist.Node{in, out, nw.Lookup("mid")} {
		if !sameStages(nw, db.Release(n.Index),
			ToNode(nw, n, tech.Rise, Options{}), ToNode(nw, n, tech.Fall, Options{})) {
			t.Errorf("Release(%s): db disagrees with direct enumeration", n.Name)
		}
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if !sameStages(nw, db.From(n.Index, tr), FromNode(nw, n, tr, Options{})) {
				t.Errorf("From(%s,%v): db disagrees with direct enumeration", n.Name, tr)
			}
		}
	}
	if first := db.Release(out.Index); len(first.Stages) == 0 || first != db.Release(out.Index) {
		t.Error("Release re-enumerated a built entry")
	}
}

// TestDBLazyEntries pins the lifetime rule of a slot: nil until asked,
// then one slab for everyone; an enumeration that finds nothing costs no
// allocation of its own.
func TestDBLazyEntries(t *testing.T) {
	nw, in, out := passNet()
	db := NewDB(nw, Options{})
	for i := range db.through {
		if db.through[i] != nil {
			t.Fatal("fresh database holds a built entry")
		}
	}
	db.Release(out.Index)
	built := 0
	for i := range db.release {
		if db.release[i] != nil {
			built++
		}
	}
	if built != 1 {
		t.Errorf("one Release built %d entries", built)
	}
	// Nothing can drive a strong source: the shared empty slab.
	if got := db.Release(in.Index); got != emptySlab {
		t.Errorf("empty enumeration allocated a slab: %+v", got)
	}
}

// TestSetCompiled: a database whose view was dropped keeps every slab and
// rebuilds the view on the next enumeration — over the compile it was
// handed, or over one of its own.
func TestSetCompiled(t *testing.T) {
	nw, _, out := passNet()
	cn := netlist.Compile(nw)
	db := NewDB(nw, Options{})
	db.SetCompiled(cn)
	first := db.Through(0)
	if db.v == nil || db.v.cn != cn {
		t.Fatal("the first enumeration did not build its view over the given compile")
	}
	db.SetCompiled(nil)
	if db.v != nil || db.cn != nil {
		t.Fatal("SetCompiled(nil) kept the view or its compile")
	}
	if db.Through(0) != first || db.v != nil {
		t.Fatal("a built slab was lost or rebuilt the view")
	}
	own := netlist.Compile(nw)
	db.SetCompiled(own)
	if !sameStages(nw, db.Release(out.Index), ToNode(nw, out, tech.Rise, Options{}), ToNode(nw, out, tech.Fall, Options{})) {
		t.Fatal("enumeration over a handed compile differs from a direct one")
	}
	if db.v == nil || db.v.cn != own {
		t.Fatal("the rebuilt view does not read the compile it was handed")
	}
	db.SetCompiled(nil)
	db.Through(1)
	if db.v == nil || db.v.cn == nil || db.v.cn == own {
		t.Fatal("with no compile handed over, the view must compile the network itself")
	}
}

// TestDBTurnOn pins the materialized turn-on list to the Through slab it is
// read from: the very records, Rise targets first.
func TestDBTurnOn(t *testing.T) {
	nw, _, _ := passNet()
	db := NewDB(nw, Options{})
	for _, tx := range nw.Trans {
		got, trunc := db.TurnOnIdx(tx.Index)
		sl := db.Through(tx.Index)
		if trunc != sl.Truncated || len(got) != len(sl.Stages) {
			t.Fatalf("TurnOnIdx(%s): %d stages, want %d", tx.Gate.Name, len(got), len(sl.Stages))
		}
		for i, st := range got {
			if st != &sl.Stages[i] {
				t.Errorf("TurnOnIdx(%s)[%d] is not the slab's record", tx.Gate.Name, i)
			}
			if i > 0 && st.Transition() < got[i-1].Transition() {
				t.Errorf("TurnOnIdx(%s)[%d]: a Rise target after a Fall target", tx.Gate.Name, i)
			}
		}
	}
}

// TestUsesTrans checks the filter the turn-off walk applies to release
// slabs against a plain scan of the path.
func TestUsesTrans(t *testing.T) {
	nw, _, _ := passNet()
	db := NewDB(nw, Options{})
	for _, n := range nw.Nodes {
		sl := db.Release(n.Index)
		for i := range sl.Stages {
			st := &sl.Stages[i]
			for ti := -1; ti < len(nw.Trans)+70; ti++ {
				want := false
				for _, e := range st.Path() {
					want = want || int(e.Trans) == ti
				}
				if st.UsesTrans(ti) != want {
					t.Errorf("%s: UsesTrans(%d) = %v", st, ti, !want)
				}
			}
		}
	}
}

func TestDBGroup(t *testing.T) {
	nw, _, out := passNet()
	db := NewDB(nw, Options{})
	var pass *netlist.Trans
	for _, tx := range nw.Trans {
		if tx.Gate.Name == "g1" {
			pass = tx
		}
	}
	g := db.Group(pass.Index)
	found := map[string]bool{}
	for _, i := range g {
		found[nw.Nodes[i].Name] = true
	}
	// Both channel terminals are non-source and must be in the group; the
	// rails must never be.
	if !found["mid"] || !found[out.Name] {
		t.Errorf("group of pass gate = %v, want mid and out", found)
	}
	for _, i := range g {
		if n := nw.Nodes[i]; n.IsSource() {
			t.Errorf("group contains source node %s", n.Name)
		}
	}
}

// TestDeriveSharesCleanSlots checks the generation step: clean slots carry
// the predecessor's slabs (built or not), dirty ones start empty, and the
// predecessor is untouched.
func TestDeriveSharesCleanSlots(t *testing.T) {
	nw, _, out := passNet()
	db := NewDB(nw, Options{})
	db.Prewarm(1)
	before := slices.Clone(db.through)
	next := nw.Clone()
	d := db.Derive(next, Options{}, Changes{Trans: []int{3}, Nodes: []int{out.Index}})
	if d.Epoch != db.Epoch+1 || d.Network() != next {
		t.Fatalf("derived epoch %d over %p", d.Epoch, d.Network())
	}
	if db.Network() != nw || !slices.Equal(db.through, before) {
		t.Fatal("Derive moved its predecessor")
	}
	for i := range d.through {
		got, old := d.through[i], db.through[i]
		if dirty := i == 3; dirty && got != nil || !dirty && got != old {
			t.Errorf("through slot %d: %p, predecessor holds %p", i, got, old)
		}
	}
	for i := range d.release {
		got, old := d.release[i], db.release[i]
		if dirty := i == out.Index; dirty && got != nil || !dirty && got != old {
			t.Errorf("release slot %d: %p, predecessor holds %p", i, got, old)
		}
	}
	if d.groups[3] != nil || d.groups[2] != db.groups[2] {
		t.Error("group slots not split by dirtiness")
	}
	if !sameStages(next, d.Release(out.Index),
		ToNode(next, out, tech.Rise, Options{}), ToNode(next, out, tech.Fall, Options{})) {
		t.Error("re-enumerated dirty entry disagrees with direct enumeration")
	}
}

// TestAdvanceRemapsInPlace checks the in-place step over a batch that
// removes a device (the last one moves into its index) and adds two: each
// surviving device keeps its slabs at its new index, the added ones start
// empty, and the database ends at the new device count. (A real batch
// also marks the groups it touched stale; this one marks nothing, so the
// slots show the remap alone.)
func TestAdvanceRemapsInPlace(t *testing.T) {
	nw, _, out := passNet()
	db := NewDB(nw, Options{})
	db.Prewarm(1)
	old := slices.Clone(db.through)
	moved := nw.Trans[3]
	nw.RemoveTrans(nw.Trans[1])
	nw.AddTrans(tech.NEnh, moved.Gate, out, nw.GND(), 0, 0)
	nw.AddTrans(tech.NEnh, moved.Gate, out, nw.GND(), 0, 0)
	nw.NextGeneration()
	db.Advance(nw, Options{}, Changes{OldTrans: []int{0, 3, 2, -1, -1}})
	if len(db.through) != 5 || len(db.groups) != 5 || db.Generation() != nw.Generation() || db.Epoch != 1 {
		t.Fatalf("advanced to %d slots, generation %d, epoch %d", len(db.through), db.Generation(), db.Epoch)
	}
	for j, want := range []*Slab{old[0], old[3], old[2], nil, nil} {
		if db.through[j] != want {
			t.Errorf("through slot %d: %p, want %p", j, db.through[j], want)
		}
	}
	// A stale mark empties the slot; an identity map moves nothing.
	db.Advance(nw, Options{}, Changes{OldTrans: []int{0, 1, 2, 3, 4}, Trans: []int{1}})
	if db.through[0] != old[0] || db.through[1] != nil || db.Epoch != 2 {
		t.Error("an identity map moved a slot, or a stale one kept its slab")
	}
}

// TestAdvancePatchesView checks that a view kept over a standing compile
// is patched, not rebuilt: after a load edit and after a new snapshot it is
// the same object and equals a fresh view, and it goes with a new compile.
func TestAdvancePatchesView(t *testing.T) {
	nw, _, out := passNet()
	cn := netlist.Compile(nw)
	db := NewDB(nw, Options{})
	db.SetCompiled(cn)
	db.Release(out.Index)
	v := db.v
	out.Cap += 20e-15
	nw.NextGeneration()
	db.Advance(nw, Options{}, Changes{Nodes: []int{out.Index}})
	if db.v != v {
		t.Fatal("Advance dropped the view over a standing compile")
	}
	if db.CheckView() == nil {
		t.Fatal("CheckView missed a load the batch changed")
	}
	db.Advance(nw, Options{}, Changes{Nodes: []int{out.Index}, Loaded: []int{out.Index}})
	if err := db.CheckView(); err != nil {
		t.Fatal(err)
	}
	// A new snapshot under which the pass device is off.
	pass := nw.Trans[2]
	off := Options{Oracle: func(t *netlist.Trans) Conduction {
		if t == pass {
			return Off
		}
		return Maybe
	}}
	db.Advance(nw, off, Changes{Trans: []int{pass.Index}})
	if db.CheckView() == nil {
		t.Fatal("CheckView missed a conduction the new oracle changed")
	}
	db.Advance(nw, off, Changes{Trans: []int{pass.Index}, Conduction: []int{pass.Index}})
	if err := db.CheckView(); err != nil {
		t.Fatal(err)
	}
	db.SetCompiled(cn)
	if db.v != v {
		t.Fatal("handing the same compile again dropped the view")
	}
	db.SetCompiled(netlist.Compile(nw))
	if db.v != nil {
		t.Fatal("a new compile kept the old view")
	}
}

// TestRecordsHoldNoNetworkPointers walks the types a database keeps per
// entry: a pointer into a network anywhere in them would let one surviving
// slab pin a whole superseded generation.
func TestRecordsHoldNoNetworkPointers(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(netlist.Node{}):    true,
		reflect.TypeOf(netlist.Trans{}):   true,
		reflect.TypeOf(netlist.Network{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if banned[ty] {
			t.Errorf("%s reaches %s", path, ty)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path, ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Interface, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: cannot be shown network-free", path, ty.Kind())
		}
	}
	walk("Slab", reflect.TypeOf(Slab{}))
	walk("group", reflect.TypeOf([]int32(nil)))
}

// TestDBPrewarm checks the serial prewarm builds exactly the entries lazy
// access would: every slot it fills matches what a fresh database enumerates
// on demand for the same key.
func TestDBPrewarm(t *testing.T) {
	nw, _, _ := passNet()
	warm, lazy := NewDB(nw, Options{}), NewDB(nw, Options{})
	warm.Prewarm(1)
	built := 0
	check := func(what string, got *Slab, want func() *Slab) {
		if got != nil {
			built++
			if !sameStages(nw, got, want().result()) {
				t.Errorf("prewarmed %s disagrees with lazy access", what)
			}
		}
	}
	for i := range nw.Trans {
		check(fmt.Sprintf("Through(%d)", i), warm.through[i], func() *Slab { return lazy.Through(i) })
	}
	for i := range nw.Nodes {
		check(fmt.Sprintf("Release(%d)", i), warm.release[i], func() *Slab { return lazy.Release(i) })
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			check(fmt.Sprintf("From(%d,%v)", i, tr), warm.from[2*i+int(tr)], func() *Slab { return lazy.From(i, tr) })
		}
	}
	if built == 0 {
		t.Fatal("Prewarm built nothing")
	}
}
