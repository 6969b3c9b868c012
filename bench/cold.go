package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// coldRun is one batch user's time-to-verdict: .sim file on disk → parsed
// network → analysis → critical-path report, with every accelerator that is
// not under test off (no snapshot, one worker).
type coldRun struct {
	a      *core.Analyzer
	report []byte
	wall   time.Duration
}

func coldIteration(tr *tracer, it int, spec, path string, hier bool) (*coldRun, error) {
	// A batch run is a fresh process: start each iteration from a collected
	// heap, so the collector's pacing — and with it the peak RSS — does not
	// depend on where the previous iteration left it.
	runtime.GC()
	top := tr.start(-1, "iteration", "bench", it)
	t0 := time.Now()

	s := tr.start(top, "netlist.LoadSimFile", "netlist", it)
	nw, _, err := netlist.LoadSimFile(spec, path, tech.NMOS4(), netlist.LoadOptions{Workers: 1})
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.start(top, "core.New", "core", it)
	a, err := newAnalyzer(nw, directivesFor(spec), core.Options{Workers: 1, Hier: hier, MaxEventsPerNode: chipGuard})
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.start(top, "core.Run", "core", it)
	err = a.Run()
	tr.end(s)
	if err != nil {
		return nil, err
	}

	var report bytes.Buffer
	s = tr.start(top, "core.WriteReport", "core", it)
	err = a.WriteReport(&report, 5)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	wall := time.Since(t0)
	tr.end(top)
	return &coldRun{a, report.Bytes(), wall}, nil
}

// check compares one iteration's outcome with the golden (which a flat,
// serial, reorder-off run produced — so the hierarchical arm is checked
// against a flat result, not against itself).
func (r *coldRun) check(want verdict, hier bool) error {
	if n := len(r.a.Unbounded); n != 0 {
		return fmt.Errorf("%s: feedback guard fired on %d nodes", want.Spec, n)
	}
	if len(r.report) == 0 {
		return fmt.Errorf("%s: empty report", want.Spec)
	}
	if hs := r.a.HierStats(); hier && hs.Stamped == 0 {
		return fmt.Errorf("%s: hierarchical run stamped nothing (%d instances)", want.Spec, hs.Instances)
	}
	return want.matches(verdictOf(want.Spec, r.a), !hier)
}

func runCold(e *env, spec string, hier bool) error {
	var path string
	var raw []byte
	var transistors int
	if _, err := e.setup(func() (err error) {
		path, raw, transistors, err = e.writeSim(spec)
		return err
	}); err != nil {
		return err
	}
	want := e.goldens[spec]
	iterate := func(tr *tracer, it int) (*coldRun, error) {
		r, err := coldIteration(tr, it, spec, path, hier)
		if err != nil {
			return nil, err
		}
		e.attempt(r.check(want, hier))
		return r, nil
	}

	// One warm-up iteration: page cache, heap growth. What it leaves live —
	// the network and its analyzer — is the workload's resident footprint.
	warm, err := iterate(nil, -1)
	if err != nil {
		return err
	}
	if !e.traced {
		e.memoryMetrics(float64(transistors))
	}
	runtime.KeepAlive(warm)
	warm = nil

	if e.traced {
		return coldTraced(e, spec, path, raw, hier, iterate)
	}

	var wallsMs []float64
	total := 0.0
	for start := time.Now(); time.Since(start).Seconds() < e.seconds; {
		r, err := iterate(nil, len(wallsMs))
		if err != nil {
			return err
		}
		wallsMs = append(wallsMs, r.wall.Seconds()*1e3)
		total += r.wall.Seconds()
	}
	pct, tail := tailPercentile(wallsMs, 50)
	e.set("op_p50_ms", median(wallsMs))
	e.set("op_tail_ms", tail)
	e.set("work_per_s", float64(transistors)*float64(len(wallsMs))/total)
	fmt.Printf("%s: %s, %d transistors, %d timed iterations, wall p50 %.1f ms, tail p%.0f %.1f ms\n",
		e.workload, spec, transistors, len(wallsMs), median(wallsMs), pct, tail)
	return nil
}

// coldTraced does the traced run's fixed work: a few traced iterations, then
// the layer probes over the same network.
func coldTraced(e *env, spec, path string, raw []byte, hier bool, iterate func(*tracer, int) (*coldRun, error)) error {
	for i := 0; i < e.sz.tracedIters; i++ {
		if _, err := iterate(e.tr, i); err != nil {
			return err
		}
	}
	e.set("trace_overhead_pct", e.tr.overheadPct())
	p := &probe{e: e, spec: spec, path: path, raw: raw, hier: hier, guard: chipGuard,
		loadMs:   median(e.tr.durationsMs("netlist.LoadSimFile")),
		runMs:    median(e.tr.durationsMs("core.Run")),
		reportMs: median(e.tr.durationsMs("core.WriteReport")),
	}
	if err := p.run(); err != nil {
		return err
	}
	zeroEditMetrics(e)
	zeroServerMetrics(e)
	return nil
}
