package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/tech"
)

// TestDrainOutcomeCounts prints what the drain's queue and candidate
// counters read on chip:8 and chip:16 (flat, guard 1000 — the benchmark's
// settings) and checks the two identities that make them a ledger: every
// candidate offered to improve — one per stage evaluation, plus the seeds —
// has exactly one outcome, and every pop that was not stale was one
// propagation round of its (node, transition). The ledger balances, on the
// same figures, whether the stage database was prewarmed (two workers) or
// built as the drain went (one).
func TestDrainOutcomeCounts(t *testing.T) {
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	var out strings.Builder
	fmt.Fprintf(&out, "%-8s %9s %9s %8s %8s %10s %9s %9s %9s %8s\n",
		"circuit", "stages", "pops", "stale", "maxq", "improved", "earlier", "tie-lost", "pruned", "ties")
	for _, width := range []int{8, 16} {
		if width == 16 && testing.Short() {
			continue
		}
		nw, err := gen.Chip(p, width)
		if err != nil {
			t.Fatal(err)
		}
		fix, lb := gen.ChipDirectives(width)
		var serial DrainStats
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("chip:%d, %d workers", width, workers)
			a := buildAnalyzer(t, nw, m, fix, lb, Options{Workers: workers, MaxEventsPerNode: 1000})
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			if len(a.Unbounded) != 0 {
				t.Fatalf("%s: the guard fired on %d nodes", label, len(a.Unbounded))
			}
			s := a.DrainStats()
			offered := int64(a.StagesEvaluated() + len(a.seeded))
			if got := s.Improved + s.Earlier + s.TieLost + s.Pruned; got != offered {
				t.Errorf("%s: %d outcomes for %d candidates (%d stages + %d seeds): %+v",
					label, got, offered, a.StagesEvaluated(), len(a.seeded), s)
			}
			var rounds int64
			for _, c := range a.count {
				rounds += int64(c[0]) + int64(c[1])
			}
			if s.Pops-s.StalePops != rounds {
				t.Errorf("%s: %d pops − %d stale, but %d propagation rounds", label, s.Pops, s.StalePops, rounds)
			}
			if workers == 1 {
				serial = s
				if s.MaxQueue <= 0 || s.MaxQueue > s.Pops {
					t.Errorf("%s: max queue %d of %d pops", label, s.MaxQueue, s.Pops)
				}
				fmt.Fprintf(&out, "chip:%-3d %9d %9d %8d %8d %10d %9d %9d %9d %7.1f%%\n", width,
					a.StagesEvaluated(), s.Pops, s.StalePops, s.MaxQueue, s.Improved, s.Earlier, s.TieLost, s.Pruned,
					100*float64(s.TieLost)/float64(offered))
				continue
			}
			if s != serial {
				t.Errorf("%s counts differently from one worker:\n%+v\n%+v", label, s, serial)
			}
		}
	}
	t.Logf("\n%s", out.String())
}

// TestRunReleasesQueue: a from-scratch drain's queue slab (tens of
// thousands of entries at chip scale) is not part of the resident analysis,
// and the slab an edit's re-drain leaves behind stays edit-sized however
// many generations pass.
func TestRunReleasesQueue(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(8)
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), fix, lb, Options{Workers: 1, MaxEventsPerNode: 1000})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	run := a.DrainStats().MaxQueue
	if got := a.queue.Retained(); got != 0 {
		t.Fatalf("the analyzer retains %d bytes of queue storage after Run (the drain held %d entries)", got, run)
	}
	rng := rand.New(rand.NewSource(5))
	nodes, trans := localTargets(nw)
	incrementals, first, most := 0, 0, 0
	for g := 0; g < 20; g++ {
		batch, undo := localBatch(a.Net, nodes, trans, rng, 1+rng.Intn(6))
		for _, edits := range [][]incremental.Edit{batch, undo} {
			st, err := a.Reanalyze(edits)
			if err != nil {
				t.Fatal(err)
			}
			got := a.queue.Retained()
			switch {
			case st.Full && got != 0:
				t.Fatalf("generation %d fell back to a full run and retains %d bytes of queue", g, got)
			case !st.Full:
				incrementals++
				if first == 0 {
					first = got
				}
				most = max(most, got)
			}
		}
	}
	if incrementals < 20 {
		t.Fatalf("%d of 40 generations were incremental, want at least 20", incrementals)
	}
	// 20 bytes an entry; the first generation's slab is whatever its batch
	// needed, so allow any later batch a few times that — but nothing near
	// the full run's.
	if limit := int(run) * 20 / 4; most > limit {
		t.Errorf("the queue grew to %d bytes over 40 generations (first %d); a quarter of the full run's slab is %d", most, first, limit)
	}
	t.Logf("full run: %d entries at its peak, released; 40 generations retain at most %d bytes (first %d)", run, most, first)
}
