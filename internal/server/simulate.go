// POST /v1/sessions/{id}/simulate: functional regression over the resident
// netlist through the vectorized strength-lattice engine. Every request
// vector settles independently from power-on state, 64 vectors per
// bit-plane slab, so a resident session doubles as a truth-table service:
// load once, stream vectors, re-verify after every edit (the compiled
// engine is rebuilt automatically when edits advance the network
// generation).
package server

import (
	"net/http"
	"time"

	"repro/internal/netlist"
	"repro/internal/switchsim"
)

// simulateRequest is the POST .../simulate body. Vectors is required; each
// entry is one symbol per input column ('0', '1', 'X'/'x' = released;
// spaces and tabs between symbols are ignored).
type simulateRequest struct {
	// Inputs maps vector columns to these input nodes, in order. Default:
	// every input in netlist order. Unmapped inputs stay released (X).
	Inputs []string `json:"inputs,omitempty"`
	// Watch selects the nodes reported per vector. Default: the netlist's
	// marked outputs.
	Watch   []string `json:"watch,omitempty"`
	Vectors []string `json:"vectors"`
}

// simulateResult is one settled vector: the canonical echo of its input
// symbols, the watched node values in Watch order, and whether the settle
// hit the oscillation cutoff (oscillating nodes report X).
type simulateResult struct {
	Vector     string   `json:"vector"`
	Values     []string `json:"values"`
	Oscillated bool     `json:"oscillated,omitempty"`
}

// simulateResponse is the simulate reply.
type simulateResponse struct {
	Session string `json:"session"`
	// Compiled reports whether this request built the batch engine (first
	// simulate on the session, or the first after an edit barrier).
	Compiled   bool             `json:"compiled"`
	Inputs     []string         `json:"inputs"`
	Watch      []string         `json:"watch"`
	Vectors    int              `json:"vectors"`
	Sweeps     int              `json:"sweeps"`
	Results    []simulateResult `json:"results"`
	DurationNs int64            `json:"duration_ns"`
}

func (sv *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	var req simulateRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	if len(req.Vectors) == 0 {
		writeErr(w, http.StatusBadRequest, "missing vectors")
		return
	}
	sv.runJob(w, r, s, "simulate", false, func() (int, any) { return sv.simulateSession(s, req) })
}

// simulateSession settles one simulate request's vectors on the job plane
// and returns the HTTP status plus response body.
func (sv *Server) simulateSession(s *session, req simulateRequest) (int, any) {
	start := time.Now()
	b, compiled := s.batchEngine()
	if len(b.Inputs()) == 0 {
		return fail(http.StatusUnprocessableEntity, "netlist has no input nodes")
	}
	cols, err := b.Columns(req.Inputs)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	watch := s.nw.Outputs()
	if len(req.Watch) > 0 {
		if watch, err = s.nw.LookupAll(req.Watch); err != nil {
			return fail(http.StatusBadRequest, "%v", err)
		}
	}
	if len(watch) == 0 {
		return fail(http.StatusBadRequest,
			"no nodes to watch: netlist marks no outputs, set \"watch\"")
	}

	vecs := make([]switchsim.Value, 0, len(req.Vectors)*len(b.Inputs()))
	echo := make([]string, len(req.Vectors))
	for vi, row := range req.Vectors {
		if vecs, echo[vi], err = cols.AppendRow(vecs, row); err != nil {
			return fail(http.StatusBadRequest, "vector %d: %v", vi, err)
		}
	}

	res, err := b.Run(vecs, watch)
	if err != nil {
		return fail(http.StatusUnprocessableEntity, "%v", err)
	}
	dur := time.Since(start)

	sv.m.simRequests.Add(1)
	sv.m.simVectors.Add(int64(res.Vectors))
	sv.m.simSweeps.Add(int64(res.Sweeps))
	if compiled {
		sv.m.simCompiles.Add(1)
	}
	sv.m.simulateLatency.observe(dur)

	resp := simulateResponse{
		Session: s.id, Compiled: compiled,
		Inputs: cols.Names, Watch: netlist.Names(watch),
		Vectors: res.Vectors, Sweeps: res.Sweeps,
		Results:    make([]simulateResult, res.Vectors),
		DurationNs: dur.Nanoseconds(),
	}
	for v := 0; v < res.Vectors; v++ {
		vals := make([]string, len(watch))
		for i := range watch {
			vals[i] = res.Out[v][i].String()
		}
		if res.Osc[v] {
			sv.m.simOscillations.Add(1)
		}
		resp.Results[v] = simulateResult{
			Vector: echo[v], Values: vals, Oscillated: res.Osc[v],
		}
	}
	return http.StatusOK, resp
}
