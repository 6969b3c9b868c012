// Command bench is the repository's one gated benchmark: four workloads over
// the timing verifier and its daemon, end-to-end metrics measured untraced,
// and a per-layer ledger measured in a separate traced run by timing calls
// into each layer's public functions from here. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run (the gate)
//	bench [-runs N] [-label L]                               N runs of every workload → out/set-L.json
//	bench -compare A.json B.json                             verdict per workload × metric
//	bench -update-golden                                     regenerate golden/*.json by the slow path
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var workloadNames = []string{"cold_flat", "cold_hier", "edit_loop", "service_mix"}

// sizes fixes how much work each workload does. fullSizes is what
// BENCHMARK.json gates on; the smoke test runs toySizes.
type sizes struct {
	flatSpec, hierSpec, editSpec string
	// corpus is the service workload's circuit set; cycle indexes into it and
	// is the order-free multiset one pass of a client's sessions draws from.
	corpus []string
	cycle  []int
	// probeSpec is the network the service workload's per-layer probes run on.
	probeSpec string
	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats int
	// Fixed work of the traced run (the untraced run is time-boxed instead,
	// so its counts are not comparable between runs; these are).
	tracedIters    int // cold: iterations
	tracedBatches  int // edit_loop: batches
	tracedSessions int // service_mix: sessions per client, after one warm-up pass of the cycle
	// verifyEvery is how many edit batches pass between from-scratch checks.
	verifyEvery int
	// evalStages is how many stages the delay.evaluate_ns probe draws.
	evalStages int
}

var fullSizes = sizes{
	flatSpec: "chip:32,2",
	hierSpec: "chip:32,10",
	editSpec: "chip:32",
	corpus: []string{"decoder:6", "alu:16", "ripple:32", "barrel:32", "pla:12,40,12,3", "arraymul:8",
		"chip:8", "carrysel:32", "chip:8,2", "manchester:32", "chip:16", "arraymul:16"},
	// chip:8 is drawn twice per pass so that, with the specs ordered by
	// analysis cost, both the median and the 90th percentile of analyze
	// latency fall inside one spec's band instead of on the boundary between
	// two, where the mix of a particular seed would decide the metric.
	cycle:          []int{0, 1, 2, 3, 4, 5, 6, 6, 7, 8, 9, 10, 11},
	probeSpec:      "chip:16",
	setupRepeats:   5,
	tracedIters:    3,
	tracedBatches:  240,
	tracedSessions: 26,
	verifyEvery:    200,
	evalStages:     10000,
}

var toySizes = sizes{
	flatSpec:       "chip:8",
	hierSpec:       "chip:8,3",
	editSpec:       "chip:8",
	corpus:         []string{"decoder:4", "ripple:8", "chip:8"},
	cycle:          []int{0, 1, 2, 2},
	probeSpec:      "chip:8",
	setupRepeats:   2,
	tracedIters:    1,
	tracedBatches:  6,
	tracedSessions: 2,
	verifyEvery:    3,
	evalStages:     500,
}

// metricDecl is one metric declaration of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the single declaration of workload and metric
// names, units and regression bounds. The code sets values by name and
// refuses to report a run whose names differ from the declared set.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// findRoot locates the checkout root (the directory holding BENCHMARK.json)
// from the working directory: the root itself or bench/ inside it.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..; pass -root")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is one workload run.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	root     string
	tmp      string // scratch directory inside bench/out, removed at exit
	tr       *tracer
	goldens  map[string]verdict

	values    map[string]float64
	attempted int
	failed    int
	failures  []string // first few failure messages, for the report
}

func (e *env) set(name string, v float64) { e.values[name] = v }

// attempt counts one checked operation; a non-nil err counts it as failed.
func (e *env) attempt(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.failures) < 5 {
			e.failures = append(e.failures, err.Error())
		}
	}
}

// finish turns the collected values into the result, insisting that the set
// of names equals the set BENCHMARK.json declares for this kind of run.
func (e *env) finish(decls []metricDecl) (*result, error) {
	r := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := e.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure declared metric %q", e.workload, d.Name)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range e.values {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s measured %q, which BENCHMARK.json does not declare", e.workload, name)
		}
	}
	r.Correct = e.failed == 0 && e.attempted > 0
	return r, nil
}

// peakRSSMB reads VmHWM of this process. Each run is a process of its own, so
// the high-water mark belongs to one workload alone.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// memoryMetrics records the two memory metrics. Every workload calls it at
// the end of its fixed warm-up, with what the warm-up built still live, and
// not after the time-boxed window: in edit_loop and service_mix memory grows
// with the work done (see README, "Observed while sizing"), so taken at the
// end it would measure how many operations the window fitted — and a change
// that made the operations faster would read as a memory regression.
func (e *env) memoryMetrics(transistors float64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	e.set("live_heap_bytes_per_transistor", float64(ms.HeapAlloc)/transistors)
	e.set("peak_rss_mb", peakRSSMB())
}

// setup runs fn — one complete set-up of the workload — several times when
// untraced and records the median as setup_s, so that work a later change
// moves out of the measured loop and into set-up still shows. The accuracy
// gate is part of every set-up; its verdict is counted once.
func (e *env) setup(fn func() error) (accuracy, error) {
	repeats := e.sz.setupRepeats
	if e.traced {
		repeats = 1
	}
	var acc accuracy
	var secs []float64
	for i := 0; i < repeats; i++ {
		runtime.GC() // every repetition starts from a collected heap, like the first
		t0 := time.Now()
		var err error
		if acc, err = measureAccuracy(); err != nil {
			return acc, err
		}
		if err := fn(); err != nil {
			return acc, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	e.attempt(acc.gate())
	if e.traced {
		e.set("delay.slope_err_pct", acc.slope)
		e.set("delay.rc_err_pct", acc.rc)
		e.set("delay.lumped_err_pct", acc.lumped)
	} else {
		e.set("setup_s", median(secs))
	}
	fmt.Printf("%s seed %d: %s\n", e.workload, e.seed, acc)
	return acc, nil
}

// writeSim generates spec and writes it as a .sim file into the scratch
// directory, returning the path, the text and the transistor count.
func (e *env) writeSim(spec string) (path string, raw []byte, transistors int, err error) {
	nw, err := gen.Build(spec, tech.NMOS4())
	if err != nil {
		return "", nil, 0, err
	}
	var buf bytes.Buffer
	if err := netlist.WriteSim(&buf, nw); err != nil {
		return "", nil, 0, err
	}
	path = filepath.Join(e.tmp, "design.sim")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", nil, 0, err
	}
	return path, buf.Bytes(), len(nw.Trans), nil
}

// runWorkload executes one run and returns its result. out is where the
// trace file and scratch inputs go.
func runWorkload(m *manifest, root, out, workload string, seed int64, seconds float64, traced bool, sz sizes) (*result, error) {
	tmp, err := os.MkdirTemp(out, "tmp-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{workload: workload, seed: seed, seconds: seconds, traced: traced, sz: sz,
		root: root, tmp: tmp, values: map[string]float64{}}
	if traced {
		e.tr = newTracer()
	}
	if e.goldens, err = loadGoldens(root, workload, sz); err != nil {
		return nil, err
	}
	switch workload {
	case "cold_flat":
		err = runCold(e, sz.flatSpec, false)
	case "cold_hier":
		err = runCold(e, sz.hierSpec, true)
	case "edit_loop":
		err = runEditLoop(e)
	case "service_mix":
		err = runServiceMix(e)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	decls := m.EndToEnd
	if traced {
		decls = m.PerLayer
		if err := e.tr.write(filepath.Join(out, "trace-"+workload+".json"), workload); err != nil {
			return nil, err
		}
	}
	for _, msg := range e.failures {
		fmt.Printf("FAILED: %s\n", msg)
	}
	return e.finish(decls)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed     = flag.Int64("seed", 1, "seed of the edit stream and the service script")
		seconds  = flag.Float64("seconds", 0, "how long an untraced run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run, fixed work, prints the per-layer metrics")
		rootFlag = flag.String("root", "", "checkout root (default: the directory with BENCHMARK.json, . or ..)")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs per workload, seeds seed..seed+runs-1")
		label    = flag.String("label", "run", "without -workload: the set is written to bench/out/set-<label>.json")
		compare  = flag.Bool("compare", false, "compare two set files: bench -compare A.json B.json")
		update   = flag.Bool("update-golden", false, "regenerate bench/golden/*.json by flat, serial, reorder-off runs")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *rootFlag, *runs, *label, *compare, *update, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, root string, runs int, label string, compare, update bool, args []string) error {
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return err
		}
	}
	m, err := loadManifest(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(m.RunSeconds)
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two set files")
		}
		return compareSets(m, args[0], args[1])
	case update:
		return updateGoldens(root, fullSizes)
	case workload == "":
		return runSet(m, root, out, seed, seconds, runs, label)
	}
	r, err := runWorkload(m, root, out, workload, seed, seconds, traced, fullSizes)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
