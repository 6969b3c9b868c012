package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// probe measures the layers under one workload's network by calling their
// public functions directly. Analyzer.Run fuses its phases (settle, stage
// enumeration, drain), so a phase is timed here as a replica call — the same
// public calls Run makes, in the same order — recorded as a top-level span of
// its own. Replicas therefore never sit inside, or inflate, a traced
// iteration.
type probe struct {
	e     *env
	spec  string
	path  string // the .sim file
	raw   []byte // its content
	hier  bool
	guard int
	// Already measured by the workload's own spans; measured here when 0.
	loadMs, runMs, reportMs float64
}

// timed runs fn as a top-level span and returns its duration in ms.
func (p *probe) timed(name, layer string, fn func() error) (float64, error) {
	s := p.e.tr.start(-1, name, layer, -1)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.e.tr.end(s)
	return d.Seconds() * 1e3, err
}

// metric runs fn once as a span and stores its duration under name.
func (p *probe) metric(name, span, layer string, fn func() error) error {
	ms, err := p.timed(span, layer, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", span, err)
	}
	p.e.set(name, ms)
	return nil
}

func (p *probe) analyzer(nw *netlist.Network, opts core.Options) (*core.Analyzer, error) {
	opts.MaxEventsPerNode = p.guard
	opts.Hier = p.hier
	return newAnalyzer(nw, directivesFor(p.spec), opts)
}

func (p *probe) run() error {
	e, tp := p.e, tech.NMOS4()

	if err := p.metric("gen.build_ms", "gen.Build", "gen", func() error {
		_, err := gen.Build(p.spec, tp)
		return err
	}); err != nil {
		return err
	}

	// Ingest.
	if p.loadMs == 0 {
		var err error
		if p.loadMs, err = p.timed("netlist.LoadSimFile", "netlist", func() error {
			_, _, err := netlist.LoadSimFile(p.spec, p.path, tp, netlist.LoadOptions{Workers: 1})
			return err
		}); err != nil {
			return err
		}
	}
	e.set("netlist.load_ms", p.loadMs)
	var nw *netlist.Network
	if err := p.metric("netlist.parse_ms", "netlist.ReadSim", "netlist", func() (err error) {
		nw, err = netlist.ReadSim(p.spec, tp, bytes.NewReader(p.raw))
		return err
	}); err != nil {
		return err
	}
	if err := p.metric("netlist.parse_allcores_ms", "netlist.ReadSimParallel", "netlist", func() error {
		_, err := netlist.ReadSimParallel(p.spec, tp, bytes.NewReader(p.raw), 0)
		return err
	}); err != nil {
		return err
	}
	if err := p.metric("netlist.check_ms", "netlist.Check", "netlist", nw.Check); err != nil {
		return err
	}
	if err := p.metric("netlist.compile_ms", "netlist.CompileWith", "netlist", func() error {
		netlist.CompileWith(nw, netlist.CompileOptions{Reorder: true})
		return nil
	}); err != nil {
		return err
	}
	transistors := float64(len(nw.Trans))
	simx := filepath.Join(e.tmp, "probe.simx")
	hash := sha256.Sum256(p.raw)
	if err := p.metric("netlist.snapshot_write_ms", "netlist.WriteSnapshotFile", "netlist", func() error {
		return netlist.WriteSnapshotFile(simx, nw, hash)
	}); err != nil {
		return err
	}
	if err := p.metric("netlist.mmap_open_ms", "netlist.OpenMapped", "netlist", func() error {
		m, err := netlist.OpenMapped(simx, tp)
		if err != nil {
			return err
		}
		return m.Close()
	}); err != nil {
		return err
	}
	if err := p.metric("netlist.snapshot_decode_ms", "netlist.ReadSnapshot", "netlist", func() error {
		f, err := os.Open(simx)
		if err != nil {
			return err
		}
		defer f.Close()
		_, _, err = netlist.ReadSnapshot(f, tp)
		return err
	}); err != nil {
		return err
	}
	st, err := os.Stat(simx)
	if err != nil {
		return err
	}
	e.set("netlist.bytes_per_transistor_sim", float64(len(p.raw))/transistors)
	e.set("netlist.bytes_per_transistor_simx", float64(st.Size())/transistors)

	// Static sensitization: the two-pass settle Analyzer.Run performs, first
	// with the fixed inputs, then with every toggling input at X.
	d := directivesFor(p.spec)
	var static []switchsim.Value
	sweeps := 0
	if err := p.metric("switchsim.settle_ms", "switchsim.Settle", "switchsim", func() error {
		sim := switchsim.New(nw)
		for name, v := range d.fixed {
			if err := sim.SetInput(nw.Lookup(name), switchsim.FromBool(v == "1")); err != nil {
				return err
			}
		}
		sweeps = sim.Settle()
		for _, in := range nw.Inputs() {
			if _, isFixed := d.fixed[in.Name]; isFixed {
				continue
			}
			if err := sim.SetInput(in, switchsim.VX); err != nil {
				return err
			}
		}
		sweeps += sim.Settle()
		static = sim.Snapshot()
		return nil
	}); err != nil {
		return err
	}
	e.set("switchsim.settle_sweeps", float64(sweeps))

	// Vectorized functional simulation, as crystald's simulate endpoint runs it.
	const vectors = 64
	rng := rand.New(rand.NewSource(e.seed))
	ms, err := p.timed("switchsim.Batch", "switchsim", func() error {
		b := switchsim.NewBatch(nw)
		vecs := make([]switchsim.Value, vectors*len(b.Inputs()))
		for i := range vecs {
			vecs[i] = switchsim.FromBool(rng.Intn(2) == 1)
		}
		_, err := b.Run(vecs, nw.Outputs())
		return err
	})
	if err != nil {
		return err
	}
	e.set("switchsim.batch_vectors_per_s", vectors/(ms/1e3))

	// Hierarchy detection.
	var plan *hier.Plan
	if err := p.metric("hier.detect_ms", "hier.Detect", "hier", func() error {
		plan = hier.Detect(nw)
		return nil
	}); err != nil {
		return err
	}
	instances, stampable := plan.Stats()
	e.set("hier.instances", float64(instances))
	e.set("hier.stampable", float64(stampable))

	// Stage enumeration for the whole network under the replica's oracle.
	conduct := make([]stage.Conduction, len(nw.Trans))
	for i, t := range nw.Trans {
		switch g := static[t.Gate.Index]; {
		case t.AlwaysOn():
			conduct[i] = stage.On
		case g == switchsim.VX:
			conduct[i] = stage.Maybe
		case g == switchsim.FromBool(t.ConductsOn() == 1):
			conduct[i] = stage.On
		}
	}
	if err := p.metric("stage.prewarm_ms", "stage.Prewarm", "stage", func() error {
		db := stage.NewDB(nw, stage.Options{Oracle: func(t *netlist.Trans) stage.Conduction { return conduct[t.Index] }})
		db.Prewarm(1)
		return nil
	}); err != nil {
		return err
	}

	// The analysis itself, then again over the first run's stage database:
	// the difference is what enumeration cost.
	var a *core.Analyzer
	ms, err = p.timed("core.Run", "core", func() (err error) {
		if a, err = p.analyzer(nw, core.Options{Workers: 1}); err != nil {
			return err
		}
		return a.Run()
	})
	if err != nil {
		return err
	}
	if p.runMs == 0 {
		p.runMs = ms
	}
	e.set("core.run_ms", p.runMs)
	want := e.goldens[p.spec]
	e.attempt(want.matches(verdictOf(p.spec, a), !p.hier))
	stages := float64(a.StagesEvaluated())
	hs := a.HierStats()
	e.set("core.stages_evaluated", stages)
	e.set("core.unbounded_nodes", float64(len(a.Unbounded)))
	e.set("core.hier_stamped", float64(hs.Stamped))
	e.set("core.hier_flat", float64(hs.Flat))

	warmMs, err := p.timed("core.Run(warm DB)", "core", func() error {
		b, err := p.analyzer(nw, core.Options{Workers: 1, DB: a.StageDB()})
		if err != nil {
			return err
		}
		return b.Run()
	})
	if err != nil {
		return err
	}
	e.set("core.run_warm_db_ms", warmMs)
	e.set("core.ns_per_stage", warmMs*1e6/stages)
	e.set("stage.enumerate_share", (ms-warmMs)/ms)

	if p.reportMs == 0 {
		if p.reportMs, err = p.timed("core.WriteReport", "core", func() error {
			return a.WriteReport(&bytes.Buffer{}, 5)
		}); err != nil {
			return err
		}
	}
	e.set("core.report_ms", p.reportMs)

	p.evaluate(nw, a.StageDB())
	p.queue(a)

	// Informational arms for the keep-or-delete verdicts: all cores, and RCM
	// reorder off. They do not repeat within a tenth on a two-core box, so
	// nothing end-to-end depends on them.
	var ds core.DrainStats
	allMs, err := p.timed("core.Run(all cores)", "core", func() error {
		b, err := p.analyzer(nw, core.Options{Workers: 0})
		if err != nil {
			return err
		}
		err = b.Run()
		ds = b.DrainStats()
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.run_allcores_ms", allMs)
	e.set("core.allcores_speedup", ms/allMs)
	e.set("core.spec_useful_ratio", ratio(float64(ds.SpecUsed), float64(ds.SpecLive)))
	e.set("core.fence_stalls", float64(ds.FenceStalls))
	e.set("core.batch_size", ratio(float64(ds.BatchItems), float64(ds.Batches)))
	return p.metric("core.run_noreorder_ms", "core.Run(no reorder)", "core", func() error {
		b, err := p.analyzer(nw, core.Options{Workers: 1, NoReorder: true})
		if err != nil {
			return err
		}
		return b.Run()
	})
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// evaluate times Model.Evaluate per delay model over stages drawn from the
// run's database, after one untimed pass that fills each stage's memo — a run
// evaluates each stage many times, so the warm cost is the one that scales.
func (p *probe) evaluate(nw *netlist.Network, db *stage.DB) {
	var stages []*stage.Stage
	for ti := 0; ti < len(nw.Trans) && len(stages) < p.e.sz.evalStages; ti++ {
		sts, _ := db.TurnOnIdx(ti)
		stages = append(stages, sts...)
	}
	tb := delay.AnalyticTables(nw.Tech)
	for _, m := range []delay.Model{delay.NewLumped(tb), delay.NewRC(tb), delay.NewSlope(tb)} {
		ns := 0.0
		if len(stages) > 0 {
			for _, st := range stages {
				m.Evaluate(nw, st, 1e-9)
			}
			ms, _ := p.timed("delay.Evaluate("+m.Name()+")", "delay", func() error {
				for _, st := range stages {
					m.Evaluate(nw, st, 1e-9)
				}
				return nil
			})
			ns = ms * 1e6 / float64(len(stages))
		}
		p.e.set("delay.evaluate_ns."+m.Name(), ns)
	}
}

// queue times sched.Queue on the run's own final events: every valid arrival
// is pushed in node order, then all are popped in time order.
func (p *probe) queue(a *core.Analyzer) {
	var items []sched.Item
	for _, n := range a.Net.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if ev := a.Arrival(n, tr); ev.Valid {
				items = append(items, sched.Item{T: ev.T, Node: int32(n.Index), Tr: uint8(tr)})
			}
		}
	}
	ms, _ := p.timed("sched.Queue", "sched", func() error {
		var q sched.Queue
		for _, it := range items {
			q.Push(it)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		return nil
	})
	p.e.set("sched.queue_ns_per_op", ratio(ms*1e6, float64(2*len(items))))
}
