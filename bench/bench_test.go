package main

import (
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// toyRun runs one workload at toy scale from the package directory.
func toyRun(t *testing.T, m *manifest, workload string, seed int64, traced bool) *result {
	t.Helper()
	r, err := runWorkload(m, "..", t.TempDir(), workload, seed, 0.3, traced, toySizes)
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", workload, seed, traced, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s seed %d traced %v: correct %v, %d of %d failed", workload, seed, traced, r.Correct, r.Failed, r.Attempted)
	}
	return r
}

func names(ds []metricDecl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(r *result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestManifest checks BENCHMARK.json against the limits of the benchmark
// contract that the driver refuses a file for.
func TestManifest(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(m.Workloads))
	}
	var declared []string
	for _, w := range m.Workloads {
		check("workload", w.Name)
		declared = append(declared, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Errorf("declared workloads %v, the driver implements %v", declared, workloadNames)
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1–16 and 1–128", len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, d := range m.EndToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want within (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s with better=lower")
	}
	for _, d := range append(append([]metricDecl{}, m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check("per-layer metric", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	if runs := 4 + 22*len(m.Workloads); m.RunSeconds < 1 || m.RunSeconds > 60 || runs*m.RunSeconds >= 3420 {
		t.Errorf("run_seconds %d × %d runs does not fit 3420 s", m.RunSeconds, runs)
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %q is not a declared per-layer metric", c)
		}
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced, twice with
// one seed and once with another: emitted names equal the declared names,
// exact counts repeat with the seed, and seeded workloads move with it.
func TestSmoke(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			if workload == "service_mix" && testing.Short() {
				t.Skip("the service arm starts an HTTP server")
			}
			e2e := toyRun(t, m, workload, 1, false)
			if got, want := emitted(e2e), names(m.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced run emitted %v, BENCHMARK.json declares %v", got, want)
			}
			for name, v := range e2e.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; the gate needs metrics that are never 0", name, v.Value)
				}
			}
			first, again, other := toyRun(t, m, workload, 1, true), toyRun(t, m, workload, 1, true), toyRun(t, m, workload, 2, true)
			if got, want := emitted(first), names(m.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run emitted %v, BENCHMARK.json declares %v", got, want)
			}
			for _, c := range exactCounts {
				if a, b := first.Metrics[c].Value, again.Metrics[c].Value; a != b {
					t.Errorf("%s: %v then %v with the same seed", c, a, b)
				}
			}
			if workload == "edit_loop" {
				if a, b := first.Metrics["core.reanalyze_stages"].Value, other.Metrics["core.reanalyze_stages"].Value; a == b {
					t.Errorf("core.reanalyze_stages is %v under seeds 1 and 2: the edit stream ignores its seed", a)
				}
			}
		})
	}
}

// TestSessionPlan: the service script is a function of the seed alone, every
// pass holds every slot once, and over four passes every slot is played cold
// and warm, sync and async, in all four combinations.
func TestSessionPlan(t *testing.T) {
	const slots = 13
	order := func(seed int64) (out []int) {
		for index := slots; index < 5*slots; index++ {
			slot, _, _ := sessionPlan(slots, seed, 0, index)
			out = append(out, slot)
		}
		return out
	}
	if !reflect.DeepEqual(order(1), order(1)) {
		t.Error("the plan is not a function of the seed")
	}
	if reflect.DeepEqual(order(1), order(2)) {
		t.Error("seeds 1 and 2 give the same plan")
	}
	combos := map[[3]int]bool{}
	for pass := 0; pass < 4; pass++ {
		seen := map[int]bool{}
		for pos := 0; pos < slots; pos++ {
			slot, cold, async := sessionPlan(slots, 1, 0, pass*slots+pos)
			seen[slot] = true
			key := [3]int{slot, 0, 0}
			if cold {
				key[1] = 1
			}
			if async {
				key[2] = 1
			}
			combos[key] = true
		}
		if len(seen) != slots {
			t.Errorf("pass %d holds %d distinct slots, want %d", pass, len(seen), slots)
		}
	}
	if len(combos) != 4*slots {
		t.Errorf("%d slot × cold × async combinations in four passes, want %d", len(combos), 4*slots)
	}
}

// TestEditStreamRestores: every second batch undoes the one before it.
func TestEditStreamRestores(t *testing.T) {
	nw, _, err := buildFromSim(toySizes.editSpec)
	if err != nil {
		t.Fatal(err)
	}
	s := newEditStream(nw, 7)
	if len(s.nodes) == 0 || len(s.trans) == 0 {
		t.Fatalf("empty edit pool: %d nodes, %d transistors", len(s.nodes), len(s.trans))
	}
	for i := 0; i < 16; i++ {
		batch, undo := s.next(nw), s.next(nw)
		if len(batch) != len(undo) {
			t.Fatalf("batch %d has %d edits, its inverse %d", i, len(batch), len(undo))
		}
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{5, 90, 50}, {19, 90, 50}, {39, 90, 50}, {40, 90, 75}, {99, 90, 75}, {100, 90, 90},
		{1000, 90, 90}, {1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {500, 50, 50},
	} {
		if pct, _ := tailPercentile(ramp(c.n), c.want); pct != c.pct {
			t.Errorf("%d samples, want p%.0f: reported p%.0f, the highest with at least ten samples beyond it is p%.0f", c.n, c.want, pct, c.pct)
		}
	}
	if _, v := tailPercentile(ramp(101), 90); v != 90 {
		t.Errorf("p90 of 0..100 is %g, want 90", v)
	}
}

// TestQuartiles pins the quartiles to what Python's statistics.quantiles
// (n=4, exclusive) returns for the same data.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "work_per_s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		var xs []float64
		for i := -5; i < 5; i++ {
			xs = append(xs, center*(1+0.002*float64(i)))
		}
		return xs
	}
	noisy := []float64{60, 80, 90, 100, 105, 110, 120, 130, 140, 160}
	for _, c := range []struct {
		a, b []float64
		d    metricDecl
		want string
	}{
		{steady(100), steady(105), lower, "ok"},
		{steady(100), steady(115), lower, "regressed"},
		{steady(100), steady(85), lower, "ok"},
		{steady(100), steady(85), higher, "regressed"},
		{steady(100), steady(115), higher, "ok"},
		{steady(100), noisy, lower, "unresolved"},
	} {
		if got, _, _ := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: medians %g → %g judged %s, want %s", c.d.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}
