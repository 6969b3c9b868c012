package main

import (
	"testing"
	"time"
)

// steps builds a ramp from (throughput, reject rate) pairs at doubling
// concurrency.
func steps(points ...[2]float64) []stepResult {
	out := make([]stepResult, len(points))
	for i, p := range points {
		out[i] = stepResult{Concurrency: 1 << i, ThroughputOps: p[0], RejectRate: p[1]}
	}
	return out
}

func TestKnee(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []stepResult
		want  int // concurrency of the knee, 0 for none
	}{
		{"no steps", nil, 0},
		{"single step", steps([2]float64{100, 0}), 1},
		{"flat curve", steps([2]float64{100, 0}, [2]float64{100, 0}, [2]float64{100, 0}), 2},
		{"gain under a tenth", steps([2]float64{100, 0}, [2]float64{150, 0}, [2]float64{164, 0}, [2]float64{300, 0}), 4},
		{"gain of exactly a tenth is not enough", steps([2]float64{100, 0}, [2]float64{110, 0}), 2},
		{"rejects over one percent", steps([2]float64{100, 0}, [2]float64{200, 0.011}, [2]float64{400, 0}), 2},
		{"rejects of exactly one percent pass", steps([2]float64{100, 0}, [2]float64{200, 0.01}, [2]float64{210, 0}), 4},
		{"first step's rejects are not a knee", steps([2]float64{100, 0.5}, [2]float64{200, 0}), 2},
		{"never flattens", steps([2]float64{100, 0}, [2]float64{200, 0}, [2]float64{400, 0}), 4},
	} {
		got := knee(tc.steps)
		switch {
		case tc.want == 0 && got != nil:
			t.Errorf("%s: knee at c=%d, want none", tc.name, got.Concurrency)
		case tc.want != 0 && (got == nil || got.Concurrency != tc.want):
			t.Errorf("%s: knee = %+v, want c=%d", tc.name, got, tc.want)
		}
	}
	// The knee is a copy: the report's Steps must not alias it.
	ramp := steps([2]float64{100, 0}, [2]float64{100, 0})
	knee(ramp).Ops = 99
	if ramp[1].Ops != 0 {
		t.Error("knee aliases the step it was found at")
	}
}

func TestNormalizeBody(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"wall-clock fields zeroed", `{"duration_ns":12345,"cached":true,"critical_ns":4.5}`,
			`{"cached":false,"critical_ns":4.5,"duration_ns":0}`},
		{"key order stable", `{"b":1,"a":{"d":2,"c":3}}`, `{"a":{"c":3,"d":2},"b":1}`},
		{"nested objects and arrays scrubbed", `{"jobs":[{"duration_ns":7,"paths":[{"cached":true}]}],"result":{"duration_ns":9}}`,
			`{"jobs":[{"duration_ns":0,"paths":[{"cached":false}]}],"result":{"duration_ns":0}}`},
		{"only the exact keys", `{"duration_ns_total":5,"is_cached":true}`, `{"duration_ns_total":5,"is_cached":true}`},
		{"scalars pass through", `[1,"duration_ns",null]`, `[1,"duration_ns",null]`},
	} {
		got, err := normalizeBody([]byte(tc.in))
		if err != nil || got != tc.want {
			t.Errorf("%s: normalizeBody = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	// Two replies that differ only in wall-clock fields normalize equal.
	a, _ := normalizeBody([]byte(`{"report":"x","duration_ns":1,"cached":false}`))
	b, _ := normalizeBody([]byte(`{"cached":true,"duration_ns":2,"report":"x"}`))
	if a != b {
		t.Errorf("equivalent replies normalize differently: %q vs %q", a, b)
	}
	for _, bad := range []string{``, `{"a":`, `not json`, `{"a":1}{"b":2}`} {
		if got, err := normalizeBody([]byte(bad)); err == nil {
			t.Errorf("normalizeBody(%q) = %q, want an error", bad, got)
		}
	}
}

func TestCountersPercentiles(t *testing.T) {
	var ct counters
	if p50, p99 := ct.percentiles(); p50 != 0 || p99 != 0 {
		t.Errorf("no samples: p50 %d p99 %d, want zeros", p50, p99)
	}
	ct.observe(7 * time.Nanosecond)
	if p50, p99 := ct.percentiles(); p50 != 7 || p99 != 7 {
		t.Errorf("one sample: p50 %d p99 %d, want 7 7", p50, p99)
	}
	// 1..200 ns observed in descending order: the median is element 100 of
	// the sorted samples (101 ns), p99 element 198 (199 ns).
	ct = counters{}
	for d := 200; d >= 1; d-- {
		ct.observe(time.Duration(d))
	}
	if p50, p99 := ct.percentiles(); p50 != 101 || p99 != 199 {
		t.Errorf("200 samples: p50 %d p99 %d, want 101 199", p50, p99)
	}
	if ct.lat[0] != 200 {
		t.Error("percentiles reordered the recorded samples")
	}
}
