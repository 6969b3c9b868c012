package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// chipGuard is MaxEventsPerNode on every chip-workload arm (the BENCH_9
// setting). The 32-bit multiplier's carry logic legitimately needs more
// rounds than the default 150, and a guard cutoff inside a tile would
// silently turn a hierarchical run flat; core.unbounded_nodes must stay 0.
const chipGuard = 1000

// directives are the analysis directives that go with a generated circuit.
type directives struct {
	fixed     map[string]string
	loopBreak []string
}

// directivesFor returns gen.ChipGridDirectives for "chip:w[,tiles]" specs and
// nothing for every other generator.
func directivesFor(spec string) directives {
	name, rest, _ := strings.Cut(spec, ":")
	if name != "chip" {
		return directives{}
	}
	args := strings.Split(rest, ",")
	w, _ := strconv.Atoi(args[0])
	tiles := 1
	if len(args) > 1 {
		tiles, _ = strconv.Atoi(args[1])
	}
	fixed, loopBreak := gen.ChipGridDirectives(w, tiles)
	return directives{fixed, loopBreak}
}

// newAnalyzer builds a slope-model analyzer over nw with the directives
// applied and every free input toggling both ways at t=0 — the vectorless
// worst case the crystal CLI and crystald run by default.
func newAnalyzer(nw *netlist.Network, d directives, opts core.Options) (*core.Analyzer, error) {
	for _, name := range d.loopBreak {
		if n := nw.Lookup(name); n != nil {
			opts.LoopBreak = append(opts.LoopBreak, n)
		}
	}
	a := core.New(nw, delay.NewSlope(delay.AnalyticTables(nw.Tech)), opts)
	for name, v := range d.fixed {
		n := nw.Lookup(name)
		if n == nil {
			return nil, fmt.Errorf("directive names missing node %q", name)
		}
		a.SetFixed(n, switchsim.FromBool(v == "1"))
	}
	for _, in := range nw.Inputs() {
		if _, isFixed := d.fixed[in.Name]; isFixed {
			continue
		}
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if err := a.SetInputEvent(in, tr, 0, 0); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// buildFromSim generates spec and returns the network as the tools see it:
// written out as .sim text and parsed back. (The text keeps geometry and
// capacitance to a fixed number of digits, so arrivals differ in their last
// bits from those of the generator's in-memory network; every workload and
// every golden therefore starts from the text.)
func buildFromSim(spec string) (*netlist.Network, []byte, error) {
	built, err := gen.Build(spec, tech.NMOS4())
	if err != nil {
		return nil, nil, err
	}
	var sim bytes.Buffer
	if err := netlist.WriteSim(&sim, built); err != nil {
		return nil, nil, err
	}
	nw, err := netlist.ReadSim(spec, tech.NMOS4(), bytes.NewReader(sim.Bytes()))
	return nw, sim.Bytes(), err
}

// verdict is what an analysis is checked by: the critical arrival, a digest
// over every arrival, and the amount of work done.
type verdict struct {
	Spec        string  `json:"spec"`
	Transistors int     `json:"transistors"`
	Nodes       int     `json:"nodes"`
	CriticalNs  float64 `json:"critical_ns"`
	// Digest is SHA-256 over (valid, T bits, Slope bits) of every node ×
	// transition in node-index order.
	Digest string `json:"digest"`
	// Stages is StagesEvaluated of a flat run; hierarchical runs evaluate
	// fewer and are not compared on it.
	Stages int `json:"stages"`
}

func verdictOf(spec string, a *core.Analyzer) verdict {
	h := sha256.New()
	var buf [17]byte
	for _, n := range a.Net.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			ev := a.Arrival(n, tr)
			buf[0] = 0
			if ev.Valid {
				buf[0] = 1
			}
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(ev.T))
			binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(ev.Slope))
			h.Write(buf[:])
		}
	}
	ev, _ := a.MaxArrival()
	return verdict{
		Spec:        spec,
		Transistors: len(a.Net.Trans),
		Nodes:       len(a.Net.Nodes),
		CriticalNs:  ev.T * 1e9,
		Digest:      hex.EncodeToString(h.Sum(nil)),
		Stages:      a.StagesEvaluated(),
	}
}

// slowPath computes a spec's golden verdict the slowest independent way the
// engine offers: flat, serial, RCM reorder off. Every accelerated arm the
// workloads time (reorder, hier, incremental, the daemon) is checked against
// this, never against itself.
func slowPath(spec string, guard int) (verdict, error) {
	nw, _, err := buildFromSim(spec)
	if err != nil {
		return verdict{}, err
	}
	a, err := newAnalyzer(nw, directivesFor(spec), core.Options{Workers: 1, NoReorder: true, MaxEventsPerNode: guard})
	if err != nil {
		return verdict{}, err
	}
	if err := a.Run(); err != nil {
		return verdict{}, err
	}
	if len(a.Unbounded) != 0 {
		return verdict{}, fmt.Errorf("%s: feedback guard fired on %d nodes", spec, len(a.Unbounded))
	}
	return verdictOf(spec, a), nil
}

// goldenSpecs lists the specs a workload's golden file pins and the guard
// each is analyzed under (0 = the engine default, which crystald uses).
func goldenSpecs(workload string, sz sizes) (specs []string, guard int) {
	switch workload {
	case "cold_flat":
		return []string{sz.flatSpec}, chipGuard
	case "cold_hier":
		return []string{sz.hierSpec}, chipGuard
	case "edit_loop":
		return []string{sz.editSpec}, chipGuard
	default:
		return sz.corpus, 0
	}
}

func goldenPath(root, workload string) string {
	return filepath.Join(root, "bench", "golden", workload+".json")
}

// loadGoldens reads bench/golden/<workload>.json. Specs the file does not
// pin (the toy sizes the smoke test runs) are computed on the spot by the
// same slow path that -update-golden uses.
func loadGoldens(root, workload string, sz sizes) (map[string]verdict, error) {
	out := map[string]verdict{}
	if raw, err := os.ReadFile(goldenPath(root, workload)); err == nil {
		var vs []verdict
		if err := json.Unmarshal(raw, &vs); err != nil {
			return nil, fmt.Errorf("%s: %w", goldenPath(root, workload), err)
		}
		for _, v := range vs {
			out[v.Spec] = v
		}
	}
	specs, guard := goldenSpecs(workload, sz)
	for _, spec := range specs {
		if _, ok := out[spec]; ok {
			continue
		}
		v, err := slowPath(spec, guard)
		if err != nil {
			return nil, err
		}
		out[spec] = v
	}
	return out, nil
}

// updateGoldens regenerates every workload's golden file via slowPath only.
func updateGoldens(root string, sz sizes) error {
	for _, wl := range workloadNames {
		specs, guard := goldenSpecs(wl, sz)
		var vs []verdict
		for _, spec := range specs {
			v, err := slowPath(spec, guard)
			if err != nil {
				return err
			}
			fmt.Printf("golden %-12s %-16s critical %.4f ns  stages %d  digest %s…\n", wl, spec, v.CriticalNs, v.Stages, v.Digest[:12])
			vs = append(vs, v)
		}
		raw, err := json.MarshalIndent(vs, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath(root, wl)), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath(root, wl), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// matches reports how got differs from the golden; stages are compared only
// for flat runs.
func (want verdict) matches(got verdict, flat bool) error {
	switch {
	case got.CriticalNs != want.CriticalNs:
		return fmt.Errorf("%s: critical arrival %.6f ns, golden %.6f ns", want.Spec, got.CriticalNs, want.CriticalNs)
	case got.Digest != want.Digest:
		return fmt.Errorf("%s: arrival digest %s…, golden %s…", want.Spec, got.Digest[:12], want.Digest[:12])
	case flat && got.Stages != want.Stages:
		return fmt.Errorf("%s: %d stages evaluated, golden %d", want.Spec, got.Stages, want.Stages)
	}
	return nil
}
