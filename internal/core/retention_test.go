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

// TestReanalyzeReleasesGenerations pins the lifetime rule of the edit loop.
// The network the analyzer was built over goes once the first batch has
// cloned it, and the stage database Run used goes once the first batch has
// derived the analyzer's own from it; from then on a.Net and a.StageDB()
// are each one object, edited and advanced in place. Every stage record,
// database slot and channel group holds indexes, so a slab a batch drops
// is garbage at once, and a resident analyzer's heap stays where the
// initial Run left it.
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
	// The caller's network (the node graph under a Network is cyclic, and a
	// finalizer inside a cycle would itself keep the cycle alive: the heap
	// bound below is what catches a pinned graph) and Run's database.
	var nets, dbs atomic.Int32
	runtime.SetFinalizer(a.Net, func(*netlist.Network) { nets.Add(1) })
	runtime.SetFinalizer(a.StageDB(), func(*stage.DB) { dbs.Add(1) })
	base := liveHeap()

	var owned *stage.DB
	var undo []incremental.Edit
	for g := 0; g < generations; g++ {
		batch := undo
		if g%2 == 0 {
			batch, undo = retentionBatch(a.Net, g/2)
		}
		if _, err := a.Reanalyze(batch); err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		if g == 0 {
			owned = a.StageDB()
		} else if a.StageDB() != owned {
			t.Fatalf("generation %d replaced the analyzer's own stage database", g)
		}
	}

	// A finalized object is freed by the collection after the one that
	// queued its finalizer, so wait the finalizers out before measuring.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if nets.Load() == 1 && dbs.Load() == 1 {
			break
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n, d := nets.Load(), dbs.Load(); n != 1 || d != 1 {
		t.Errorf("after %d generations the caller's network was collected %d times and Run's stage database %d (want 1 and 1)", generations, n, d)
	}
	if after := liveHeap(); float64(after) > 1.25*float64(base) {
		t.Errorf("live heap grew from %d to %d bytes over %d generations (more than 1.25×)", base, after, generations)
	} else {
		t.Logf("live heap %d -> %d bytes over %d generations", base, after, generations)
	}
	runtime.KeepAlive(a)
}
