// Coverage for POST /v1/sessions/{id}/simulate: vector settling over the
// resident netlist, scalar-engine identity, engine-recompile-on-edit, the
// sim.* metrics, and request validation.
package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func (c *testClient) simulate(id string, req simulateRequest) simulateResponse {
	c.t.Helper()
	var resp simulateResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/simulate", req, &resp); st != http.StatusOK {
		c.t.Fatalf("simulate: status %d", st)
	}
	return resp
}

func TestSimulateEndpoint(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session

	resp := c.simulate(id, simulateRequest{
		Inputs:  []string{"wr", "d"},
		Watch:   []string{"q", "out"},
		Vectors: []string{"11", "10", "01", "X1"},
	})
	if !resp.Compiled {
		t.Errorf("first simulate: Compiled = false, want true")
	}
	if got, want := strings.Join(resp.Inputs, " "), "wr d"; got != want {
		t.Errorf("inputs = %q, want %q", got, want)
	}
	if got, want := strings.Join(resp.Watch, " "), "q out"; got != want {
		t.Errorf("watch = %q, want %q", got, want)
	}
	want := [][]string{
		{"1", "1"}, // write 1: latched and buffered out
		{"0", "0"}, // write 0
		{"X", "X"}, // not written from power-on: unknown
		{"X", "X"}, // maybe-written: unknown
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(want))
	}
	for i, res := range resp.Results {
		if got := strings.Join(res.Values, " "); got != strings.Join(want[i], " ") {
			t.Errorf("vector %s: values %q, want %q", res.Vector, got, strings.Join(want[i], " "))
		}
		if res.Oscillated {
			t.Errorf("vector %s: unexpected oscillation", res.Vector)
		}
	}
	if resp.Sweeps <= 0 || resp.DurationNs < 0 {
		t.Errorf("bad run metadata: sweeps=%d duration=%d", resp.Sweeps, resp.DurationNs)
	}

	// Second call reuses the compiled engine and accumulates metrics.
	resp2 := c.simulate(id, simulateRequest{Vectors: []string{"11", "10"}})
	if resp2.Compiled {
		t.Errorf("second simulate: Compiled = true, want cached engine")
	}
	if got, want := strings.Join(resp2.Inputs, " "), "wr d"; got != want {
		t.Errorf("default inputs = %q, want %q (netlist order)", got, want)
	}
	m := c.metrics()
	if m.Sim.Requests != 2 || m.Sim.Compiles != 1 {
		t.Errorf("sim metrics: requests=%d compiles=%d, want 2/1", m.Sim.Requests, m.Sim.Compiles)
	}
	if m.Sim.Vectors != 6 {
		t.Errorf("sim vectors = %d, want 6", m.Sim.Vectors)
	}
	if m.Sim.Sweeps <= 0 {
		t.Errorf("sim sweeps = %d, want > 0", m.Sim.Sweeps)
	}
	if m.LatencyNs.Simulate.Count != 2 {
		t.Errorf("simulate latency count = %d, want 2", m.LatencyNs.Simulate.Count)
	}
}

// TestSimulateMatchesScalar cross-checks the endpoint against a one-state Sim
// built from the same source — the HTTP path must add nothing to (or lose
// nothing from) the engine identity pinned in internal/switchsim.
func TestSimulateMatchesScalar(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	vectors := []string{"11", "10", "01", "X1", "1X", "00", "0X", "XX"}
	resp := c.simulate(id, simulateRequest{Vectors: vectors})

	nw, err := netlist.ReadSim("dlatch", tech.NMOS4(), strings.NewReader(dlatchSim(t)))
	if err != nil {
		t.Fatal(err)
	}
	inputs := nw.Inputs()
	if len(inputs) != 2 {
		t.Fatalf("dlatch inputs = %d, want 2", len(inputs))
	}
	for vi, row := range vectors {
		s := switchsim.New(nw)
		for i, n := range inputs {
			v, err := switchsim.ParseVector(string(row[i]), 1)
			if err != nil {
				t.Fatal(err)
			}
			if v[0] != switchsim.VX {
				s.SetInput(n, v[0])
			}
		}
		s.Settle()
		for wi, name := range resp.Watch {
			want := s.ValueName(name).String()
			if got := resp.Results[vi].Values[wi]; got != want {
				t.Errorf("vector %s node %s: server %s, scalar %s", row, name, got, want)
			}
		}
		if resp.Results[vi].Oscillated != s.Oscillated() {
			t.Errorf("vector %s: oscillated mismatch", row)
		}
	}
}

// TestSimulateRecompileAfterEdit pins the cache-invalidation contract: an
// edit barrier advances the network generation — the first by replacing
// the network with an edited clone, later ones by editing it in place — so
// the next simulate must rebuild the batch engine rather than answer from
// the stale compile.
func TestSimulateRecompileAfterEdit(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	if got := c.simulate(id, simulateRequest{Vectors: []string{"11"}}); !got.Compiled {
		t.Fatalf("first simulate did not compile")
	}

	c.analyze(id)
	c.edits(id, "cap out 2e-14\nrun\n")

	resp := c.simulate(id, simulateRequest{Vectors: []string{"11"}})
	if !resp.Compiled {
		t.Errorf("post-edit simulate: Compiled = false, want recompile")
	}
	if got := strings.Join(resp.Results[0].Values, " "); got != "1" {
		t.Errorf("post-edit values = %q, want %q (out follows written d)", got, "1")
	}
	// The second barrier edits the session's network in place: same
	// pointer, next generation. A pulldown on out gated by wr now wins the
	// ratioed fight against out's depletion load.
	c.edits(id, "add nenh wr out gnd\nrun\n")
	resp = c.simulate(id, simulateRequest{Vectors: []string{"11"}})
	if !resp.Compiled {
		t.Errorf("simulate after an in-place edit: Compiled = false, want recompile")
	}
	if got := strings.Join(resp.Results[0].Values, " "); got != "0" {
		t.Errorf("values after the pulldown = %q, want %q", got, "0")
	}
	if m := c.metrics(); m.Sim.Compiles != 3 {
		t.Errorf("sim compiles = %d, want 3", m.Sim.Compiles)
	}
}

func TestSimulateErrors(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session

	if st := c.do("POST", "/v1/sessions/nope/simulate",
		simulateRequest{Vectors: []string{"11"}}, nil); st != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", st)
	}
	cases := []struct {
		name string
		req  simulateRequest
	}{
		{"no vectors", simulateRequest{}},
		{"bad input", simulateRequest{Inputs: []string{"q"}, Vectors: []string{"1"}}},
		{"unknown input", simulateRequest{Inputs: []string{"zz"}, Vectors: []string{"1"}}},
		{"unknown watch", simulateRequest{Watch: []string{"zz"}, Vectors: []string{"11"}}},
		{"bad symbol", simulateRequest{Vectors: []string{"2 1"}}},
		{"ragged vector", simulateRequest{Vectors: []string{"1"}}},
	}
	for _, tc := range cases {
		if st := c.do("POST", "/v1/sessions/"+id+"/simulate", tc.req, nil); st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, st)
		}
	}
}
