package core

import (
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

// TestEpochSnapshotIsolation pins the generational guarantee: an analyzer
// reading a network and its stage database keeps bit-identical results
// while another analyzer runs edit epochs over the same lineage. The
// editor's first Reanalyze clones the network it was built over and
// derives a database of its own from the readers' one; later batches edit
// both of those in place, so the readers' snapshot — network, database
// entries, arrivals — is never written and never mixes with a new epoch.
// The readers re-run after every epoch, over the slabs (and the delay
// constants in them) the editor's database still shares. And a database
// whose network was edited behind its back is never adopted over that
// network, which is the same object it was built over.
func TestEpochSnapshotIsolation(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	fixed, lb := gen.ChipDirectives(4)
	m := delay.NewSlope(delay.AnalyticTables(p))

	// The editing analyzer establishes the generation the readers hold.
	editor := buildAnalyzer(t, nw, m, fixed, lb, Options{})
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

	// Readers re-analyze the old generation against the old database.
	readOld := func(epoch int) {
		t.Helper()
		for r := 0; r < 3; r++ {
			a := buildAnalyzer(t, oldNet, m, fixed, lb, Options{DB: oldDB})
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			if a.StageDB() != oldDB {
				t.Fatalf("epoch %d reader %d rejected the old database", epoch, r)
			}
			for i, n := range oldNet.Nodes {
				for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
					if got := a.Arrival(n, tr); !sameEvent(got, baseline[i][tr]) {
						t.Fatalf("epoch %d reader %d: arrival %s/%s = %+v, want %+v (snapshot leaked across epochs)",
							epoch, r, n.Name, tr, got, baseline[i][tr])
					}
				}
			}
		}
	}

	// Edit epochs: geometry and load tweaks that keep the invalidation
	// plan incremental, so Derive shares most entries with oldDB — the
	// exact sharing the readers run over.
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
		readOld(epoch)
	}
	// An empty batch applied behind the database's back keeps the stamp and
	// the network object: only the generation tells the database apart.
	stale := editor.StageDB()
	if _, err := incremental.ApplyInPlace(editor.Net, nil); err != nil {
		t.Fatal(err)
	}
	if stale.Network() != editor.Net || stale.Generation() == editor.Net.Generation() {
		t.Fatal("the edit replaced the network or left its generation")
	}
	a := buildAnalyzer(t, editor.Net, m, fixed, lb, Options{DB: stale})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.StageDB() == stale || a.StageDB().Stamp != stale.Stamp {
		t.Fatalf("a database of generation %d was adopted at generation %d (or the stamp moved)",
			stale.Generation(), editor.Net.Generation())
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
	stale.Stamp[0] ^= 1 // the digest of no snapshot a settle of this network gives
	opts.DB = stale
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
	opts := Options{}
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
