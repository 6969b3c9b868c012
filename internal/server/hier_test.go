// Hierarchical analysis at the HTTP surface: with Options.Hier every
// analyze carries a "hier" provenance block, /metrics a hier.* section,
// and edit barriers that detach stamped instances are reflected in the
// refreshed snapshot. Timing identity of hier-on vs hier-off is proved in
// internal/core (TestHierIdentity); here we only check the service
// surfaces the provenance honestly.
package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// gridConfig builds a replicated-tile chip (3 tiles of the datapath tile,
// sharing the opcode bus) as .sim text with its @ inst annotations, plus
// the fixed-address and register-feedback directives every tile needs.
func gridConfig(t *testing.T) (SessionConfig, *netlist.Network) {
	return tilesConfig(t, 3)
}

// tilesConfig is gridConfig at any tile count.
func tilesConfig(t *testing.T, tiles int) (SessionConfig, *netlist.Network) {
	t.Helper()
	p := tech.NMOS4()
	nw, err := gen.ChipGrid(p, 8, tiles)
	if err != nil {
		t.Fatal(err)
	}
	var sim bytes.Buffer
	if err := netlist.WriteSim(&sim, nw); err != nil {
		t.Fatal(err)
	}
	fixed, loopBreak := gen.ChipGridDirectives(8, tiles)
	return SessionConfig{
		Name: "grid", Sim: sim.String(),
		Tech: "nmos-4u", Model: "slope", Tables: "analytic",
		Fix: fixed, LoopBreak: loopBreak, Top: 3,
	}, nw
}

func TestAnalyzeHier(t *testing.T) {
	c := newTestClient(t, Options{Hier: true})
	cfg, nw := gridConfig(t)

	var created createResponse
	if st := c.do("POST", "/v1/sessions", cfg, &created); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var ar analyzeResponse
	if st := c.do("POST", "/v1/sessions/"+created.Session+"/analyze", nil, &ar); st != http.StatusOK {
		t.Fatalf("analyze: status %d", st)
	}
	// 3 tiles: tile 0 fingerprints alone (the shared bus nodes order
	// differently against its interior), tiles 1/2 class together — one
	// representative analyzed flat, one member stamped.
	if ar.Hier == nil {
		t.Fatal("analyze response missing hier block with Options.Hier set")
	}
	if ar.Hier.Instances != 3 || ar.Hier.Stamped != 1 || ar.Hier.Flat != 2 {
		t.Fatalf("hier = %+v, want {3 1 2}", *ar.Hier)
	}

	// Cached re-analyze serves the same snapshot, provenance included.
	var cached analyzeResponse
	if st := c.do("POST", "/v1/sessions/"+created.Session+"/analyze", nil, &cached); st != http.StatusOK {
		t.Fatalf("cached analyze: status %d", st)
	}
	if !cached.Cached || cached.Hier == nil || *cached.Hier != *ar.Hier {
		t.Fatalf("cached analyze lost the hier block: %+v", cached.Hier)
	}

	var ms MetricsSnapshot
	if st := c.do("GET", "/metrics", nil, &ms); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if ms.Hier.Analyzes != 1 || ms.Hier.Instances != 3 || ms.Hier.Stamped != 1 || ms.Hier.Flat != 2 {
		t.Fatalf("hier metrics = %+v, want analyzes 1, instances 3, stamped 1, flat 2", ms.Hier)
	}

	// An edit inside the stamped tile detaches it: the barrier's refreshed
	// snapshot reports zero stamped instances (the class dissolved).
	target := -1
	for _, inst := range nw.Instances {
		if inst.Path == "t2_" {
			target = inst.TransLo
		}
	}
	if target < 0 {
		t.Fatal("no t2_ instance annotation in the generated network")
	}
	var er editsResponse
	script := fmt.Sprintf("resize %d 5e-6 2e-6\nrun\n", target)
	if st := c.do("POST", "/v1/sessions/"+created.Session+"/edits",
		editsRequest{Script: script}, &er); st != http.StatusOK {
		t.Fatalf("edits: status %d", st)
	}
	if er.Snapshot == nil || er.Snapshot.Hier == nil {
		t.Fatal("post-edit snapshot missing hier block")
	}
	if er.Snapshot.Hier.Stamped != 0 {
		t.Fatalf("stamped = %d after editing the stamped tile, want 0", er.Snapshot.Hier.Stamped)
	}
	if er.Snapshot.Hier.Instances != 3 {
		t.Fatalf("instances = %d after the edit, want 3 (detach, not disappearance)", er.Snapshot.Hier.Instances)
	}
}

// TestAnalyzeHierOff: without Options.Hier the response must not grow a
// hier block and the counters stay zero.
func TestAnalyzeHierOff(t *testing.T) {
	c := newTestClient(t, Options{})
	cfg, _ := gridConfig(t)
	var created createResponse
	if st := c.do("POST", "/v1/sessions", cfg, &created); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var ar analyzeResponse
	if st := c.do("POST", "/v1/sessions/"+created.Session+"/analyze", nil, &ar); st != http.StatusOK {
		t.Fatalf("analyze: status %d", st)
	}
	if ar.Hier != nil {
		t.Fatalf("hier block present with hierarchical analysis off: %+v", *ar.Hier)
	}
	var ms MetricsSnapshot
	if st := c.do("GET", "/metrics", nil, &ms); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if ms.Hier.Analyzes != 0 || ms.Hier.Instances != 0 {
		t.Fatalf("hier metrics nonzero with hierarchical analysis off: %+v", ms.Hier)
	}
}
