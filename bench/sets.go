package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// setRun is one child run as a set file records it.
type setRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// runSet is the mode without --workload: every workload, runs times untraced
// (seeds seed, seed+1, …) and once traced, each in a re-exec'd child so that
// peak RSS and garbage-collector state belong to one workload's one run. The
// set goes to bench/out/set-<label>.json for -compare.
func runSet(m *manifest, root, out string, seed int64, seconds float64, runs int, label string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set []setRun
	child := func(workload string, seed int64, trace int) error {
		cmd := exec.Command(self, "-root", root, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", workload, err)
		}
		for _, line := range lines[:len(lines)-1] {
			fmt.Println(line)
		}
		printResult(m, workload, trace, &r)
		set = append(set, setRun{workload, seed, trace, &r})
		return nil
	}
	for i := 0; i < runs; i++ {
		for _, w := range m.Workloads {
			if err := child(w.Name, seed+int64(i), 0); err != nil {
				return err
			}
		}
	}
	for _, w := range m.Workloads {
		if err := child(w.Name, seed, 1); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "set-"+label+".json")
	fmt.Printf("set written to %s\n", path)
	return os.WriteFile(path, raw, 0o644)
}

// printResult lists a run's metrics by name and unit, in declaration order.
func printResult(m *manifest, workload string, trace int, r *result) {
	decls := m.EndToEnd
	if trace == 1 {
		decls = m.PerLayer
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, d := range decls {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}

func readSet(path string) ([]setRun, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []setRun
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one end-to-end metric of one workload over a set's untraced
// runs.
func values(set []setRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range set {
		if r.Workload == workload && r.Trace == 0 && r.Result != nil {
			if v, ok := r.Result.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// judge gives the verdict for one workload × metric: "unresolved" when either
// side's interquartile spread, as a share of its median, is wider than the
// bound (the runs cannot tell a change of that size from noise); "regressed"
// when B's median is worse than A's by more than the bound; else "ok". Like
// the gate, it does not hold setup_s to the spread rule: a run sets up five
// times, not hundreds, and only the drift of its median is judged.
func judge(a, b []float64, d metricDecl) (verdict string, worse, spread float64) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	spread = (a3 - a1) / a2
	if s := (b3 - b1) / b2; s > spread {
		spread = s
	}
	worse = (b2 - a2) / a2
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > d.Bound && d.Name != "setup_s":
		return "unresolved", worse, spread
	case worse > d.Bound:
		return "regressed", worse, spread
	}
	return "ok", worse, spread
}

// compareSets prints one row per workload × end-to-end metric for two sets,
// then checks that the exact counts of the traced runs agree.
func compareSets(m *manifest, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-32s %5s %12s %12s %12s | %12s %12s %12s | %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "worse", "spread", "bound", "verdict")
	bad := 0
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := values(a, w.Name, d.Name), values(b, w.Name, d.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("%-12s %-32s needs at least two untraced runs on each side (have %d and %d)\n", w.Name, d.Name, len(va), len(vb))
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v, worse, spread := judge(va, vb, d)
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-12s %-32s %5s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, d.Unit, a1, a2, a3, b1, b2, b3, 100*worse, 100*spread, 100*d.Bound, v)
		}
	}
	for _, name := range exactCounts {
		for _, w := range m.Workloads {
			ca, okA := count(a, w.Name, name)
			cb, okB := count(b, w.Name, name)
			if okA && okB && ca != cb {
				fmt.Printf("%-12s %-32s exact count differs: A %v, B %v\n", w.Name, name, ca, cb)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not ok", bad)
	}
	fmt.Println("every end-to-end metric within its bound on every workload; exact counts identical")
	return nil
}

// exactCounts are the per-layer metrics that count work rather than time it.
// With the same seed they must repeat bit for bit.
var exactCounts = []string{"core.stages_evaluated", "core.unbounded_nodes", "core.hier_stamped", "core.hier_flat",
	"hier.instances", "hier.stampable", "switchsim.settle_sweeps", "core.reanalyze_stages", "core.reanalyze_full_share",
	"server.create_cold_count", "server.create_warm_count", "server.create_dedup_count", "server.analyze_count",
	"server.edits_count", "server.critical_count", "server.simulate_count", "server.delete_count", "server.jobs_done",
	"server.arena_detaches", "netlist.bytes_per_transistor_sim", "netlist.bytes_per_transistor_simx"}

// count returns a per-layer metric of the set's traced run of one workload.
func count(set []setRun, workload, metric string) (float64, bool) {
	for _, r := range set {
		if r.Workload == workload && r.Trace == 1 && r.Result != nil {
			return r.Result.Metrics[metric].Value, true
		}
	}
	return 0, false
}
