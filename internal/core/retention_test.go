package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// liveHeap is the heap in use once everything unreachable is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle's finalizers released more
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retentionBatch is the g-th edit batch of the retention test and its exact
// inverse: extra capacitance on a node, a resize, and a parallel device
// added (removed again by the inverse), cycling through the chip.
func retentionBatch(nw *netlist.Network, g int) (batch, undo []incremental.Edit) {
	ti := (37 * g) % len(nw.Trans)
	for nw.Trans[ti].IsWire() || nw.Trans[ti].A.IsSource() {
		ti = (ti + 1) % len(nw.Trans)
	}
	t := nw.Trans[ti]
	switch g % 3 {
	case 0:
		batch = []incremental.Edit{{Kind: incremental.AddCap, Node: t.A.Name, Cap: 20e-15}}
		undo = []incremental.Edit{{Kind: incremental.AddCap, Node: t.A.Name, Cap: -20e-15}}
	case 1:
		batch = []incremental.Edit{{Kind: incremental.Resize, Index: ti, W: 1.25 * t.W}}
		undo = []incremental.Edit{{Kind: incremental.Resize, Index: ti, W: t.W}}
	default:
		batch = []incremental.Edit{{Kind: incremental.AddTrans, Dev: t.Type,
			Gate: t.Gate.Name, A: t.A.Name, B: t.B.Name, W: t.W, L: t.L}}
		undo = []incremental.Edit{{Kind: incremental.RemoveTrans, Index: len(nw.Trans)}}
	}
	return batch, undo
}

// TestReanalyzeReleasesGenerations pins the lifetime rule of the edit loop:
// a superseded generation — its network and its stage database — is garbage
// as soon as Reanalyze returns, whatever the next generation shares with
// it. Every stage record, database slot and channel group holds indexes,
// so nothing that survives an edit reaches into the network it was built
// over; a resident analyzer's heap therefore stays where the initial Run
// left it instead of growing by a clone per edit.
func TestReanalyzeReleasesGenerations(t *testing.T) {
	const generations = 40
	p := tech.NMOS4()
	fix, lb := gen.ChipDirectives(8)
	// Built in a call of its own, so no local of this function pins
	// generation 0.
	a := func() *Analyzer {
		nw, err := gen.Chip(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		return buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), fix, lb, Options{})
	}()
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()

	var nets, dbs atomic.Int32
	var undo []incremental.Edit
	for g := 0; g < generations; g++ {
		// Everything current now is superseded by the Reanalyze below. (The
		// node graph under a Network is cyclic, and a finalizer inside a
		// cycle would itself keep the cycle alive: the heap bound below is
		// what catches a pinned graph.)
		runtime.SetFinalizer(a.Net, func(*netlist.Network) { nets.Add(1) })
		runtime.SetFinalizer(a.StageDB(), func(*stage.DB) { dbs.Add(1) })
		batch := undo
		if g%2 == 0 {
			batch, undo = retentionBatch(a.Net, g/2)
		}
		if _, err := a.Reanalyze(batch); err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
	}

	// A finalized object is freed by the collection after the one that
	// queued its finalizer, so wait the finalizers out before measuring.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if nets.Load() == generations && dbs.Load() == generations {
			break
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n, d := nets.Load(), dbs.Load(); n != generations || d != generations {
		t.Errorf("after %d generations only %d networks and %d stage databases were collected", generations, n, d)
	}
	if after := liveHeap(); float64(after) > 1.25*float64(base) {
		t.Errorf("live heap grew from %d to %d bytes over %d generations (more than 1.25×)", base, after, generations)
	} else {
		t.Logf("live heap %d -> %d bytes over %d generations", base, after, generations)
	}
	runtime.KeepAlive(a)
}
