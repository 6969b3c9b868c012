package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from bench/.
// Parent is the index of the enclosing span, -1 for a top-level one.
type span struct {
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, so the same workload code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id; -1 from a nil tracer.
func (t *tracer) start(parent int, name, layer string, iter int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, StartNs: now, Parent: parent, Iteration: iter})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// overheadPct is the share of the traced top-level spans' wall time that
// recording the spans itself cost: the number of spans times the cost of one,
// calibrated here by timing empty spans on a scratch tracer. The guide's
// "difference between a traced and an untraced run" would be the better
// number, but the ledger's spans sit only at layer boundaries — a dozen per
// multi-second iteration — so that difference is a few microseconds under
// several percent of run-to-run noise, and an A/B inside one run reported
// only the noise.
func (t *tracer) overheadPct() float64 {
	const probes = 200000
	scratch := newTracer()
	scratch.spans = make([]span, 0, probes)
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		scratch.end(scratch.start(-1, "calibration", "bench", i))
	}
	perSpan := float64(time.Since(t0).Nanoseconds()) / probes
	var top int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			top += s.EndNs - s.StartNs
		}
	}
	if top == 0 {
		return 0
	}
	return 100 * perSpan * float64(len(t.spans)) / float64(top)
}

// durationsMs returns the duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfNs returns each span's duration minus the time its children cover.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// layerSelfMs sums self time per layer, in milliseconds.
func (t *tracer) layerSelfMs() map[string]float64 {
	out := map[string]float64{}
	for i, ns := range t.selfNs() {
		out[t.spans[i].Layer] += float64(ns) / 1e6
	}
	return out
}

type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
}

// write stores the spans and the per-layer self-time ledger as one JSON file.
func (t *tracer) write(path, workload string) error {
	var ledger []layerRow
	for layer, ms := range t.layerSelfMs() {
		ledger = append(ledger, layerRow{layer, ms})
	}
	sort.Slice(ledger, func(i, j int) bool { return ledger[i].SelfMs > ledger[j].SelfMs })
	raw, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		Ledger   []layerRow `json:"layer_self_ms"`
		Spans    []span     `json:"spans"`
	}{workload, ledger, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
