package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestDaemonMatchesVectors: crystald's /simulate, given TestGoldenVectors'
// columns, watch list and rows, answers the esim -vectors golden
// transcript: the same column headers, echoes, values and sweep count.
func TestDaemonMatchesVectors(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Options{}))
	defer srv.Close()
	post := func(path string, body, out any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range goldenVectors {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := os.ReadFile(testdataPath + tc.sim)
			if err != nil {
				t.Fatal(err)
			}
			var req struct {
				Inputs  []string `json:"inputs,omitempty"`
				Watch   []string `json:"watch,omitempty"`
				Vectors []string `json:"vectors"`
			}
			for _, line := range strings.Split(strings.TrimSpace(tc.vectors), "\n") {
				switch f := strings.Fields(line); f[0] {
				case "inputs":
					req.Inputs = f[1:]
				case "watch":
					req.Watch = f[1:]
				default:
					req.Vectors = append(req.Vectors, line)
				}
			}
			var created struct{ Session string }
			post("/v1/sessions", server.SessionConfig{Name: tc.sim, Sim: string(sim)}, &created)
			var res struct {
				Inputs, Watch   []string
				Vectors, Sweeps int
				Results         []struct {
					Vector     string
					Values     []string
					Oscillated bool
				}
			}
			post("/v1/sessions/"+created.Session+"/simulate", req, &res)

			var got strings.Builder
			fmt.Fprintf(&got, "inputs: %s\nwatch: %s\n", strings.Join(res.Inputs, " "), strings.Join(res.Watch, " "))
			for _, r := range res.Results {
				fmt.Fprintf(&got, "%s ->", r.Vector)
				for i, v := range r.Values {
					fmt.Fprintf(&got, " %s=%s", res.Watch[i], v)
				}
				if r.Oscillated {
					fmt.Fprintf(&got, " [oscillation → X]")
				}
				fmt.Fprintln(&got)
			}
			fmt.Fprintf(&got, "vectors: %d, sweeps: %d\n", res.Vectors, res.Sweeps)
			want, err := os.ReadFile("testdata/golden/" + tc.name + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("crystald differs from the esim golden:\n--- want ---\n%s\n--- got ---\n%s", want, got.String())
			}
		})
	}
}
