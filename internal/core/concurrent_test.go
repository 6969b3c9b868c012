package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// sameEvent compares arrivals by value, ignoring the Via stage pointer:
// analyzers with private databases hold distinct (but equivalent) stage
// objects, and the guarantee under test is bit-identical times.
func sameEvent(a, b Event) bool {
	return a.Valid == b.Valid && a.T == b.T && a.Slope == b.Slope &&
		a.FromNode == b.FromNode && a.FromTr == b.FromTr
}

// TestConcurrentSharedDB runs several analyzers at once over one network,
// all sharing one stage database, and checks every arrival is bit-identical
// to a strict-serial baseline. Run under -race this exercises the database's
// compare-and-swap slot install: the "cold" case starts from an empty DB so
// the concurrent analyzers race to build each entry.
func TestConcurrentSharedDB(t *testing.T) {
	p := tech.NMOS4()
	const width = 4
	nw, err := gen.Chip(p, width)
	if err != nil {
		t.Fatal(err)
	}
	fixed, lb := gen.ChipDirectives(width)
	m := delay.NewSlope(delay.AnalyticTables(p))

	newAnalyzer := func(db *stage.DB) *Analyzer {
		opts := Options{DB: db, Workers: 1}
		for _, name := range lb {
			n := nw.Lookup(name)
			if n == nil {
				t.Fatalf("directive node %s missing", name)
			}
			opts.LoopBreak = append(opts.LoopBreak, n)
		}
		a := New(nw, m, opts)
		for name, v := range fixed {
			a.SetFixed(nw.Lookup(name), switchsim.FromBool(v == "1"))
		}
		for _, in := range nw.Inputs() {
			if _, ok := fixed[in.Name]; ok {
				continue
			}
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		return a
	}

	// Strict-serial baseline with a private database.
	base := newAnalyzer(nil)
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	warm := base.StageDB()
	if warm == nil {
		t.Fatal("no stage database after run")
	}

	// A cold database with the matching stamp: nothing built yet, so the
	// concurrent runs below race to install every slot.
	cold := stage.NewDB(nw, stage.Options{Oracle: base.oracle()})
	cold.Stamp = warm.Stamp

	for _, tc := range []struct {
		name string
		db   *stage.DB
	}{{"warm", warm}, {"cold", cold}} {
		const runs = 4
		as := make([]*Analyzer, runs)
		errs := make([]error, runs)
		var wg sync.WaitGroup
		for i := range as {
			as[i] = newAnalyzer(tc.db)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = as[i].Run()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, i, err)
			}
		}
		for i, a := range as {
			if a.StageDB() != tc.db {
				t.Errorf("%s run %d rejected the shared database", tc.name, i)
			}
			for _, n := range nw.Nodes {
				for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
					want, got := base.Arrival(n, tr), a.Arrival(n, tr)
					if !sameEvent(want, got) {
						t.Fatalf("%s run %d: arrival %s/%s = %+v, want %+v",
							tc.name, i, n.Name, tr, got, want)
					}
				}
			}
		}
	}
}

// TestEpochSnapshotIsolation pins the generational guarantee: analyzers
// reading a network and its stage database keep bit-identical results while
// another analyzer runs edit epochs over the same lineage. Reanalyze clones
// the network and derives the next database generation, so the readers'
// snapshot — network, database entries, arrivals — must never mix with the
// new epoch. Run under -race this also proves the derivation shares clean
// entries without writes the readers can observe.
func TestEpochSnapshotIsolation(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	fixed, lb := gen.ChipDirectives(4)
	m := delay.NewSlope(delay.AnalyticTables(p))

	newAnalyzer := func(target *netlist.Network, db *stage.DB) *Analyzer {
		opts := Options{DB: db, Workers: 1}
		for _, name := range lb {
			opts.LoopBreak = append(opts.LoopBreak, target.Lookup(name))
		}
		a := New(target, m, opts)
		for name, v := range fixed {
			a.SetFixed(target.Lookup(name), switchsim.FromBool(v == "1"))
		}
		for _, in := range target.Inputs() {
			if _, ok := fixed[in.Name]; ok {
				continue
			}
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		return a
	}

	// The editing analyzer establishes the generation the readers hold.
	editor := newAnalyzer(nw, nil)
	if err := editor.Run(); err != nil {
		t.Fatal(err)
	}
	oldNet, oldDB := editor.Net, editor.StageDB()
	oldEpoch := oldDB.Epoch

	// Baseline arrivals of the old generation, captured before any edit.
	baseline := make([][2]Event, len(oldNet.Nodes))
	for i, n := range oldNet.Nodes {
		baseline[i] = [2]Event{editor.Arrival(n, tech.Rise), editor.Arrival(n, tech.Fall)}
	}

	// Readers re-analyze the old generation against the old database in a
	// loop while the editor advances epochs underneath them.
	done := make(chan struct{})
	var wg sync.WaitGroup
	readerErr := make([]error, 3)
	for r := range readerErr {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				a := newAnalyzer(oldNet, oldDB)
				if err := a.Run(); err != nil {
					readerErr[r] = err
					return
				}
				if a.StageDB() != oldDB {
					readerErr[r] = fmt.Errorf("iter %d: reader rejected the shared database", iter)
					return
				}
				for i, n := range oldNet.Nodes {
					for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
						if got := a.Arrival(n, tr); !sameEvent(got, baseline[i][tr]) {
							readerErr[r] = fmt.Errorf("iter %d: arrival %s/%s = %+v, want %+v (snapshot leaked across epochs)",
								iter, n.Name, tr, got, baseline[i][tr])
							return
						}
					}
				}
			}
		}(r)
	}

	// Edit epochs: geometry and load tweaks that keep the invalidation
	// plan incremental, so Derive shares most entries with oldDB — the
	// exact sharing the readers race against.
	for epoch := 0; epoch < 4; epoch++ {
		idx := (7 * epoch) % len(editor.Net.Trans)
		for editor.Net.Trans[idx].IsWire() {
			idx = (idx + 1) % len(editor.Net.Trans)
		}
		stats, err := editor.Reanalyze([]incremental.Edit{
			{Kind: incremental.Resize, Index: idx, W: float64(4+epoch) * 1e-6},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Epoch != oldEpoch+uint64(epoch)+1 {
			t.Fatalf("epoch %d: stats.Epoch = %d, want %d", epoch, stats.Epoch, oldEpoch+uint64(epoch)+1)
		}
	}
	close(done)
	wg.Wait()
	for r, err := range readerErr {
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
		}
	}
	if oldDB.Epoch != oldEpoch {
		t.Errorf("old database epoch moved: %d -> %d", oldEpoch, oldDB.Epoch)
	}
}

// TestSharedDBStampMismatch checks the safety valve: an analyzer handed a
// database built under a different sensitization must fall back to a
// private one rather than reuse wrong enumerations.
func TestSharedDBStampMismatch(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, lb := gen.ChipDirectives(4)
	m := delay.NewSlope(delay.AnalyticTables(p))
	var opts Options
	for _, name := range lb {
		opts.LoopBreak = append(opts.LoopBreak, nw.Lookup(name))
	}

	stale := stage.NewDB(nw, stage.Options{})
	stale.Stamp = "not-the-real-stamp"
	opts.DB = stale
	opts.Workers = 1
	a := New(nw, m, opts)
	for _, in := range nw.Inputs() {
		a.SetInputEvent(in, tech.Rise, 0, 0)
		a.SetInputEvent(in, tech.Fall, 0, 0)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.StageDB() == stale {
		t.Error("analyzer accepted a database with a mismatched stamp")
	}
}

// TestSharedOptionsReanalyze builds two analyzers from one Options value —
// one LoopBreak slice — and edits both at once. An analyzer keeps its loop
// breaks by node index, so neither re-analysis touches the caller's slice
// or the other analyzer; under -race this fails if rebind ever writes
// through Options.LoopBreak again.
func TestSharedOptionsReanalyze(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	fixed, lb := gen.ChipDirectives(4)
	m := delay.NewSlope(delay.AnalyticTables(p))
	opts := Options{Workers: 1}
	for _, name := range lb {
		opts.LoopBreak = append(opts.LoopBreak, nw.Lookup(name))
	}
	given := append([]*netlist.Node(nil), opts.LoopBreak...)

	analyzers := make([]*Analyzer, 2)
	for i := range analyzers {
		a := New(nw, m, opts)
		for name, v := range fixed {
			a.SetFixed(nw.Lookup(name), switchsim.FromBool(v == "1"))
		}
		for _, in := range nw.Inputs() {
			if _, ok := fixed[in.Name]; !ok {
				a.SetInputEvent(in, tech.Rise, 0, 0)
				a.SetInputEvent(in, tech.Fall, 0, 0)
			}
		}
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		analyzers[i] = a
	}

	var wg sync.WaitGroup
	errs := make([]error, len(analyzers))
	for i, a := range analyzers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for epoch := 0; epoch < 3 && errs[i] == nil; epoch++ {
				_, errs[i] = a.Reanalyze([]incremental.Edit{
					{Kind: incremental.AddCap, Node: lb[0], Cap: 5e-15},
				})
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("analyzer %d: %v", i, err)
		}
	}
	for i, n := range opts.LoopBreak {
		if n != given[i] {
			t.Fatalf("Reanalyze rewrote the caller's LoopBreak[%d]", i)
		}
	}
	requireIdentical(t, "same edits, shared options", analyzers[0], analyzers[1], false)
}
