// Acceptance: a scripted designer session at chip scale (the E6
// benchmark circuit) over HTTP — load, full analysis, ten small edit
// barriers — must report byte-identical results to an offline replay of
// the same session against the core API, with at least 9/10 barriers
// served incrementally and a p50 edit latency below the full-analyze
// median.
package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func TestAcceptanceChipSession(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-scale session in -short mode")
	}
	p := tech.NMOS4()
	nw, err := gen.Chip(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	var sim strings.Builder
	if err := netlist.WriteSim(&sim, nw); err != nil {
		t.Fatal(err)
	}
	fixed, loopBreak := gen.ChipDirectives(32)
	cfg := SessionConfig{
		Name: "chip32", Sim: sim.String(),
		Fix: fixed, LoopBreak: loopBreak, Top: 5,
	}

	// The designer loop: ten barriers, each reloading one multiplier
	// product and one address line — the scale of a placement tweak. The
	// signs alternate so the netlist really changes every barrier.
	var script strings.Builder
	for i := 0; i < 10; i++ {
		sign := ""
		if i%2 == 1 {
			sign = "-"
		}
		fmt.Fprintf(&script, "cap prod%d %s20e-15\ncap ea%d %s20e-15\nrun\n",
			i, sign, i, sign)
	}

	// Online: the scripted session over HTTP.
	c := newTestClient(t, Options{})
	created := c.create(cfg)
	an := c.analyze(created.Session)
	ed := c.edits(created.Session, script.String())
	if len(ed.Barriers) != 10 {
		t.Fatalf("got %d barriers, want 10", len(ed.Barriers))
	}

	// Offline: the same session replayed directly against the core API,
	// the way `crystal -edits` drives it.
	tb := delay.AnalyticTables(p)
	offNw, err := netlist.ReadSim("chip32", p, strings.NewReader(sim.String()))
	if err != nil {
		t.Fatal(err)
	}
	var opts core.Options
	for _, name := range loopBreak {
		if n := offNw.Lookup(name); n != nil {
			opts.LoopBreak = append(opts.LoopBreak, n)
		}
	}
	a := core.New(offNw, delay.NewSlope(tb), opts)
	for name, v := range fixed {
		a.SetFixed(offNw.Lookup(name), switchsim.FromBool(v == "1"))
	}
	for _, in := range offNw.Inputs() {
		if _, isFixed := fixed[in.Name]; isFixed {
			continue
		}
		if err := a.SetInputEvent(in, tech.Rise, 0, 1e-9); err != nil {
			t.Fatal(err)
		}
		if err := a.SetInputEvent(in, tech.Fall, 0, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	report := func() string {
		var b strings.Builder
		st := a.Net.Stats()
		fmt.Fprintf(&b, "crystald: %s — %d transistors, %d nodes (%s tables)\n",
			a.Net.Name, st.Trans, st.Nodes, tb.Source)
		a.WriteReport(&b, cfg.Top)
		return b.String()
	}
	if off := report(); off != an.Report {
		t.Errorf("full-analysis report diverges from offline replay:\n--- http ---\n%s\n--- offline ---\n%s", an.Report, off)
	}

	barrier := 0
	err = incremental.ReplayScript(strings.NewReader(script.String()), "script",
		func(line int, batch []incremental.Edit) error {
			stats, err := a.Reanalyze(batch)
			if err != nil {
				return err
			}
			got := ed.Barriers[barrier]
			if want := core.FormatReanalyzeStatus("crystald", stats); got.Status != want {
				t.Errorf("barrier %d status: got %q, want %q", barrier, got.Status, want)
			}
			if off := report(); got.Report != off {
				t.Errorf("barrier %d report diverges from offline replay:\n--- http ---\n%s\n--- offline ---\n%s",
					barrier, got.Report, off)
			}
			if got.Epoch != stats.Epoch || got.Incremental == stats.Full {
				t.Errorf("barrier %d stats: got epoch %d incremental %v, want epoch %d incremental %v",
					barrier, got.Epoch, got.Incremental, stats.Epoch, !stats.Full)
			}
			barrier++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if barrier != 10 {
		t.Fatalf("offline replay applied %d barriers, want 10", barrier)
	}

	// Service-level acceptance: ≥9/10 barriers incremental, and the p50
	// edit barrier beats the full-analyze median.
	m := c.metrics()
	if m.Edits.Incremental < 9 {
		t.Errorf("only %d/10 edit barriers were incremental (full: %d)",
			m.Edits.Incremental, m.Edits.Full)
	}
	if m.LatencyNs.EditBarrier.P50Ns >= m.LatencyNs.Analyze.P50Ns {
		t.Errorf("p50 edit barrier %v not under full-analyze median %v",
			time.Duration(m.LatencyNs.EditBarrier.P50Ns), time.Duration(m.LatencyNs.Analyze.P50Ns))
	}
	t.Logf("chip session: analyze p50 %v, edit p50 %v, %d/%d incremental",
		time.Duration(m.LatencyNs.Analyze.P50Ns), time.Duration(m.LatencyNs.EditBarrier.P50Ns),
		m.Edits.Incremental, m.Edits.Batches)
}
