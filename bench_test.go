// Benchmarks of the reconstructed evaluation (DESIGN.md, EXPERIMENTS.md)
// and microbenchmarks of the analysis hot paths. The deterministic
// experiments' numbers live in EXPERIMENTS.md's checked blocks, which
// cmd/delaycmp's TestGoldenExperiments pins; what stays here times work:
// one characterization sweep (E1), the verifier's throughput and capacity
// (E6), hierarchical and incremental analysis, the batch switch-level
// engine, and the hot paths.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/analog"
	"repro/internal/charlib"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// BenchmarkE1SlopeTables regenerates the slope-model characterization
// curves (figure E1): the cost of one full table build, with the measured
// step resistance reported.
func BenchmarkE1SlopeTables(b *testing.B) {
	p := tech.NMOS4()
	var tb *delay.Tables
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = charlib.Characterize(p, charlib.Options{Ratios: []float64{0, 1, 4, 16}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tb.RSquare[tech.NEnh][tech.Fall], "Ωsq-nenh-fall")
	rmult, _ := tb.Curve(tech.NEnh, tech.Fall).At(16)
	b.ReportMetric(rmult, "rmult@16")
}

// BenchmarkE6Throughput reproduces the verifier capacity table (E6): the
// standard block set analyzed under the slope model; reported metric is
// aggregate transistors per second of analysis.
func BenchmarkE6Throughput(b *testing.B) {
	p := tech.NMOS4()
	tb, err := charlib.Default(p)
	if err != nil {
		b.Fatal(err)
	}
	var rows []experiments.ThroughputRow
	for i := 0; i < b.N; i++ {
		rows, err = experiments.E6Throughput(p, tb, "slope")
		if err != nil {
			b.Fatal(err)
		}
	}
	totalTrans, totalWall := 0.0, 0.0
	for _, r := range rows {
		totalTrans += float64(r.Trans)
		totalWall += r.Wall.Seconds()
	}
	b.ReportMetric(totalTrans/totalWall, "trans/s")
	b.ReportMetric(float64(len(rows)), "blocks")
}

// BenchmarkE6Capacity is the capacity point of E6: a single ~11k-transistor
// array multiplier analyzed end to end (the scale of a full custom block
// of the era). Reported metric: transistors per second.
func BenchmarkE6Capacity(b *testing.B) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	var trans int
	for i := 0; i < b.N; i++ {
		nw, err := gen.ArrayMultiplier(p, 16)
		if err != nil {
			b.Fatal(err)
		}
		trans = nw.Stats().Trans
		a := core.New(nw, delay.NewSlope(tb), core.Options{})
		for _, in := range nw.Inputs() {
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
		if ev, _ := a.MaxArrival(); !ev.Valid {
			b.Fatal("no arrival")
		}
	}
	b.ReportMetric(float64(trans), "transistors")
	b.ReportMetric(float64(trans)/b.Elapsed().Seconds()*float64(b.N), "trans/s")
}

// BenchmarkE6ChipScale is the whole-chip point of E6: the composed
// processor datapath (register file + ALU + shifter + multiplier +
// address adder + control PLA) analyzed with the same directives a
// Crystal user would supply — the reproduction stand-in for the paper's
// real-chip case studies. The run is serial, so its history stays
// comparable across machines.
func BenchmarkE6ChipScale(b *testing.B) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	var trans, stages int
	var crit float64
	for i := 0; i < b.N; i++ {
		nw, err := gen.Chip(p, 32)
		if err != nil {
			b.Fatal(err)
		}
		trans = nw.Stats().Trans
		fixed, loopBreak := gen.ChipDirectives(32)
		opts := core.Options{}
		for _, name := range loopBreak {
			if n := nw.Lookup(name); n != nil {
				opts.LoopBreak = append(opts.LoopBreak, n)
			}
		}
		a := core.New(nw, delay.NewSlope(tb), opts)
		for name, v := range fixed {
			n := nw.Lookup(name)
			if n == nil {
				b.Fatalf("missing directive node %s", name)
			}
			a.SetFixed(n, switchsim.FromBool(v == "1"))
		}
		for _, in := range nw.Inputs() {
			if _, isFixed := fixed[in.Name]; isFixed {
				continue
			}
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
		ev, _ := a.MaxArrival()
		if !ev.Valid {
			b.Fatal("no arrival")
		}
		crit = ev.T
		stages = a.StagesEvaluated()
	}
	b.ReportMetric(float64(trans), "transistors")
	b.ReportMetric(float64(stages), "stages")
	b.ReportMetric(crit*1e9, "ns-crit")
	b.ReportMetric(float64(trans)/b.Elapsed().Seconds()*float64(b.N), "trans/s")
}

// BenchmarkE6HierAB is the hierarchical-macromodel A/B (BENCH_9): per
// iteration it analyzes the E6-XL replicated-tile chip (chip:32,10 —
// ten tile instances sharing the opcode bus) twice on the same runner,
// once with hierarchical stamping and once flat, order alternating, and
// asserts the critical arrivals identical — the A/B form of the
// bit-identity contract. Reported metrics: per-side median wall time,
// the wall speedup, the stage-evaluation reduction (the deterministic,
// hardware-independent form of the macromodel win: stamped interiors
// evaluate zero stages), and the instance/stamped provenance counts.
//
// Both arms raise MaxEventsPerNode above the 150-round default: the
// 32-bit multiplier's reconvergent carry logic legitimately needs more
// propagation rounds, and a guard cutoff inside a tile conservatively
// unstamps its whole class (the cutoff point is order-dependent). The
// same limit on both sides keeps the arms comparable and bit-identical.
func BenchmarkE6HierAB(b *testing.B) {
	const gridW, gridTiles = 32, 10
	const eventGuard = 1000
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	nw, err := gen.ChipGrid(p, gridW, gridTiles)
	if err != nil {
		b.Fatal(err)
	}
	fixed, loopBreak := gen.ChipGridDirectives(gridW, gridTiles)

	var instances, stamped int
	analyze := func(hier bool) (time.Duration, float64, int) {
		opts := core.Options{Hier: hier, MaxEventsPerNode: eventGuard}
		for _, name := range loopBreak {
			if n := nw.Lookup(name); n != nil {
				opts.LoopBreak = append(opts.LoopBreak, n)
			}
		}
		start := time.Now()
		a := core.New(nw, delay.NewSlope(tb), opts)
		for name, v := range fixed {
			n := nw.Lookup(name)
			if n == nil {
				b.Fatalf("missing directive node %s", name)
			}
			a.SetFixed(n, switchsim.FromBool(v == "1"))
		}
		for _, in := range nw.Inputs() {
			if _, isFixed := fixed[in.Name]; isFixed {
				continue
			}
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
		d := time.Since(start)
		ev, _ := a.MaxArrival()
		if !ev.Valid {
			b.Fatal("no arrival")
		}
		if hier {
			hs := a.HierStats()
			instances, stamped = hs.Instances, hs.Stamped
			if stamped == 0 {
				b.Fatal("hierarchical analysis stamped nothing on the tiled grid")
			}
		}
		return d, ev.T, a.StagesEvaluated()
	}

	var on, off []time.Duration
	var stagesOn, stagesOff int
	for i := 0; i < b.N; i++ {
		var dOn, dOff time.Duration
		var tOn, tOff float64
		if i%2 == 0 {
			dOff, tOff, stagesOff = analyze(false)
			dOn, tOn, stagesOn = analyze(true)
		} else {
			dOn, tOn, stagesOn = analyze(true)
			dOff, tOff, stagesOff = analyze(false)
		}
		if tOn != tOff {
			b.Fatalf("critical arrival differs: hier on %g vs off %g", tOn, tOff)
		}
		on = append(on, dOn)
		off = append(off, dOff)
	}
	medianNs := func(ds []time.Duration) float64 {
		s := append([]time.Duration(nil), ds...)
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return float64(s[len(s)/2].Nanoseconds())
	}
	mOn, mOff := medianNs(on), medianNs(off)
	b.ReportMetric(mOn, "ns-hier-on")
	b.ReportMetric(mOff, "ns-hier-off")
	b.ReportMetric(mOff/mOn, "speedup")
	b.ReportMetric(float64(stagesOff)/float64(stagesOn), "stage-reduction")
	b.ReportMetric(float64(instances), "instances")
	b.ReportMetric(float64(stamped), "stamped")
	b.ReportMetric(float64(nw.Stats().Trans), "transistors")
}

// BenchmarkHierXL is the BENCH_9 scale point: the chip:64,40 grid (~2.4M
// transistors, 40 tile instances) analyzed once with hierarchical
// stamping. Flat analysis at this scale is minutes of wall time, so only
// the hier arm runs; the recorded metrics are the wall time, the live heap
// after the run (the RSS-sublinearity evidence: stamped interiors carry
// copied events but no stage enumerations or history), and the provenance
// counts.
func BenchmarkHierXL(b *testing.B) {
	const gridW, gridTiles = 64, 40
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	nw, err := gen.ChipGrid(p, gridW, gridTiles)
	if err != nil {
		b.Fatal(err)
	}
	fixed, loopBreak := gen.ChipGridDirectives(gridW, gridTiles)
	var instances, stamped, trans int
	var heapMB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 64-bit carry logic needs even more propagation rounds than the
		// 32-bit A/B; see BenchmarkE6HierAB on why the guard must not fire.
		opts := core.Options{Hier: true, MaxEventsPerNode: 4000}
		for _, name := range loopBreak {
			if n := nw.Lookup(name); n != nil {
				opts.LoopBreak = append(opts.LoopBreak, n)
			}
		}
		a := core.New(nw, delay.NewSlope(tb), opts)
		for name, v := range fixed {
			n := nw.Lookup(name)
			if n == nil {
				b.Fatalf("missing directive node %s", name)
			}
			a.SetFixed(n, switchsim.FromBool(v == "1"))
		}
		for _, in := range nw.Inputs() {
			if _, isFixed := fixed[in.Name]; isFixed {
				continue
			}
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
		ev, _ := a.MaxArrival()
		if !ev.Valid {
			b.Fatal("no arrival")
		}
		if len(a.Unbounded) != 0 {
			b.Fatalf("feedback guard fired on %d nodes; raise MaxEventsPerNode", len(a.Unbounded))
		}
		hs := a.HierStats()
		instances, stamped = hs.Instances, hs.Stamped
		if stamped == 0 {
			b.Fatal("hierarchical analysis stamped nothing on the XL grid")
		}
		trans = nw.Stats().Trans
		b.StopTimer()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heapMB = float64(ms.HeapAlloc) / 1e6
		b.StartTimer()
	}
	b.ReportMetric(float64(trans), "transistors")
	b.ReportMetric(float64(instances), "instances")
	b.ReportMetric(float64(stamped), "stamped")
	b.ReportMetric(heapMB, "heapMB")
}

// BenchmarkE6Incremental measures the designer loop on the chip-scale
// design: after one full analysis, each iteration applies a small localized
// edit batch (output-driver geometry and load tweaks — the classic "widen
// the driver, re-verify" step) and brings the timing up to date with
// Reanalyze. Reported metrics are the dirty fraction the invalidation plan
// computed and the wall-clock speedup of one incremental update over the
// initial full analysis.
func BenchmarkE6Incremental(b *testing.B) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	nw, err := gen.Chip(p, 32)
	if err != nil {
		b.Fatal(err)
	}
	fixed, loopBreak := gen.ChipDirectives(32)
	var opts core.Options
	for _, name := range loopBreak {
		if n := nw.Lookup(name); n != nil {
			opts.LoopBreak = append(opts.LoopBreak, n)
		}
	}
	a := core.New(nw, delay.NewSlope(tb), opts)
	for name, v := range fixed {
		a.SetFixed(nw.Lookup(name), switchsim.FromBool(v == "1"))
	}
	for _, in := range nw.Inputs() {
		if _, isFixed := fixed[in.Name]; isFixed {
			continue
		}
		a.SetInputEvent(in, tech.Rise, 0, 0)
		a.SetInputEvent(in, tech.Fall, 0, 0)
	}
	fullStart := time.Now()
	if err := a.Run(); err != nil {
		b.Fatal(err)
	}
	fullNs := float64(time.Since(fullStart).Nanoseconds())

	var dirtyFrac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the tweaks so every iteration really changes the
		// network (and the net drift over the run is zero). The batch
		// reloads every multiplier product and address output — a ~1%
		// slice of the chip, the scale of one placement iteration.
		sign := float64(1 - 2*(i%2))
		var edits []incremental.Edit
		for j := 0; j < 32; j++ {
			edits = append(edits,
				incremental.Edit{Kind: incremental.AddCap, Node: fmt.Sprintf("prod%d", j), Cap: sign * 20e-15},
				incremental.Edit{Kind: incremental.AddCap, Node: fmt.Sprintf("ea%d", j), Cap: sign * 20e-15})
		}
		edits = append(edits, incremental.Edit{Kind: incremental.AddCap, Node: "au_cout", Cap: sign * 10e-15})
		stats, err := a.Reanalyze(edits)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Full {
			b.Fatalf("fell back to full analysis: %s (dirty %.2f)", stats.Reason, stats.DirtyFrac)
		}
		dirtyFrac = stats.DirtyFrac
	}
	b.StopTimer()
	incNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(100*dirtyFrac, "%dirty")
	b.ReportMetric(fullNs/incNs, "speedup-vs-full")
}

// --- Microbenchmarks of the analysis hot paths ------------------------------

// BenchmarkStageExtraction measures worst-case stage enumeration through a
// NAND stack trigger.
func BenchmarkStageExtraction(b *testing.B) {
	p := tech.NMOS4()
	nw, err := gen.ALU(p, 4)
	if err != nil {
		b.Fatal(err)
	}
	trig := nw.Trans[len(nw.Trans)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage.Through(nw, trig, tech.Fall, stage.Options{})
	}
}

// BenchmarkSwitchsimSettle measures full-network settling of an 8-bit ALU
// after an input flip.
func BenchmarkSwitchsimSettle(b *testing.B) {
	p := tech.NMOS4()
	nw, err := gen.ALU(p, 8)
	if err != nil {
		b.Fatal(err)
	}
	s := switchsim.New(nw)
	s.SetInputName("fadd", switchsim.V1)
	s.Settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetInputName("a0", switchsim.FromBool(i%2 == 0))
		s.Settle()
	}
}

// BenchmarkAnalyzerRipple8 measures a complete verifier run (seeding,
// sensitization, propagation, tracing) on an 8-bit ripple adder.
func BenchmarkAnalyzerRipple8(b *testing.B) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	for i := 0; i < b.N; i++ {
		nw, err := gen.RippleAdder(p, 8)
		if err != nil {
			b.Fatal(err)
		}
		a := core.New(nw, delay.NewSlope(tb), core.Options{})
		for _, in := range nw.Inputs() {
			a.SetInputEvent(in, tech.Rise, 0, 0)
			a.SetInputEvent(in, tech.Fall, 0, 0)
		}
		if err := a.Run(); err != nil {
			b.Fatal(err)
		}
		if ev, _ := a.MaxArrival(); !ev.Valid {
			b.Fatal("no arrival")
		}
	}
}

// BenchmarkAnalogInverter measures one transient run of the reference
// simulator on an nMOS inverter (the unit of characterization cost).
func BenchmarkAnalogInverter(b *testing.B) {
	p := tech.NMOS4()
	for i := 0; i < b.N; i++ {
		c := analog.NewCircuit()
		vdd, in, out := c.Node("vdd"), c.Node("in"), c.Node("out")
		c.AddVSource(vdd, 0, analog.DC(p.Vdd))
		c.AddVSource(in, 0, analog.Step(0, p.Vdd, 5e-9))
		c.AddMOS(tech.NEnh, out, in, 0, p.MinW, p.MinL, p)
		c.AddMOS(tech.NDep, vdd, out, out, p.MinW, 4*p.MinL, p)
		c.AddCapacitor(out, 0, 100e-15, p.Vdd)
		if _, err := c.Tran(analog.TranOpts{Stop: 60e-9, Step: 30e-12}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (the design choices DESIGN.md calls out) ----------

// BenchmarkAblationIntegration compares the analog reference's two
// integrators on a characterization fixture at a coarse timestep.
func BenchmarkAblationIntegration(b *testing.B) {
	p := tech.NMOS4()
	for _, arm := range []struct {
		name string
		trap bool
	}{
		{"backward-euler", false},
		{"trapezoidal", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := analog.NewCircuit()
				vdd, in, out := c.Node("vdd"), c.Node("in"), c.Node("out")
				c.AddVSource(vdd, 0, analog.DC(p.Vdd))
				c.AddVSource(in, 0, analog.Step(0, p.Vdd, 5e-9))
				c.AddMOS(tech.NEnh, out, in, 0, p.MinW, p.MinL, p)
				c.AddMOS(tech.NDep, vdd, out, out, p.MinW, 4*p.MinL, p)
				c.AddCapacitor(out, 0, 100e-15, p.Vdd)
				if _, err := c.Tran(analog.TranOpts{Stop: 60e-9, Step: 120e-12, Trapezoidal: arm.trap}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelEvaluate compares the per-stage cost of the three models
// on a realistic multi-element stage.
func BenchmarkModelEvaluate(b *testing.B) {
	p := tech.NMOS4()
	nw, err := gen.PassChain(p, 6)
	if err != nil {
		b.Fatal(err)
	}
	res := stage.FromNode(nw, nw.Lookup("in"), tech.Fall, stage.Options{})
	st := res.Stages[len(res.Stages)-1]
	tb := delay.AnalyticTables(p)
	for _, m := range delay.All(tb) {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Evaluate(nw, st, 1e-9)
			}
		})
	}
}

// BenchmarkBatchSim is the vectorized functional-regression record
// (BENCH_6): a 1024-vector sweep over the composed E6 processor chip
// through the 64-lane batch front, against the same vectors run one at a
// time on the one-state front (Sim). The batch arm reports vectors per
// second and settled-state throughput (the two bit-planes of node state
// the engine produces: nodes × vectors / 4 bytes); the scalar arm runs a
// 64-vector subsample of the same rows (a full serial 1k sweep would
// dominate bench time) and reports the same per-vector rate, so the
// speedup recorded in BENCH_6.json is a per-vector ratio of identical
// work. Address bits follow the chip's fixed directives; free inputs are
// a deterministic pseudo-random mix of 0/1 with released (X) symbols.
func BenchmarkBatchSim(b *testing.B) {
	const chipW = 8
	const vectors = 1024
	p := tech.NMOS4()
	nw, err := gen.Chip(p, chipW)
	if err != nil {
		b.Fatal(err)
	}
	fixed, _ := gen.ChipDirectives(chipW)
	bat := switchsim.NewBatch(nw)
	inputs := bat.Inputs()
	nn := len(nw.Nodes)

	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64: deterministic across runs
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	vecs := make([]switchsim.Value, 0, vectors*len(inputs))
	for v := 0; v < vectors; v++ {
		for _, in := range inputs {
			if fv, isFixed := fixed[in.Name]; isFixed {
				vecs = append(vecs, switchsim.FromBool(fv == "1"))
				continue
			}
			switch r := next() % 8; {
			case r < 3:
				vecs = append(vecs, switchsim.V0)
			case r < 6:
				vecs = append(vecs, switchsim.V1)
			default:
				vecs = append(vecs, switchsim.VX)
			}
		}
	}

	b.Run("batch", func(b *testing.B) {
		var sweeps int
		for i := 0; i < b.N; i++ {
			res, err := bat.Run(vecs, nil)
			if err != nil {
				b.Fatal(err)
			}
			sweeps = res.Sweeps
		}
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(vectors)/secs, "vec/s")
		b.ReportMetric(float64(nn*vectors)/4/1e6/secs, "MB/s")
		b.ReportMetric(float64(sweeps), "sweeps")
		b.ReportMetric(float64(nw.Stats().Trans), "transistors")
	})
	b.Run("scalar", func(b *testing.B) {
		const sample = 64
		c := netlist.Compile(nw)
		for i := 0; i < b.N; i++ {
			for v := 0; v < sample; v++ {
				s := switchsim.NewCompiled(nw, c)
				row := vecs[v*len(inputs) : (v+1)*len(inputs)]
				for j, in := range inputs {
					if row[j] != switchsim.VX {
						if err := s.SetInput(in, row[j]); err != nil {
							b.Fatal(err)
						}
					}
				}
				s.Settle()
			}
		}
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(sample)/secs, "vec/s")
	})
}
