package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/server"
)

// post sends body as JSON to srv's path and decodes the reply into out.
func post(t *testing.T, srv *httptest.Server, path string, body, out any) {
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

// TestDaemonMatchesCLI holds crystald to FormatReanalyzeStatus's promise:
// a session given TestGoldenReports' dlatch-edits directives and edit
// script prints the CLI's golden transcript, apart from its name.
func TestDaemonMatchesCLI(t *testing.T) {
	sim, err := os.ReadFile(testdataPath + "dlatch.sim")
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(testdataPath + "dlatch-edits.script")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(server.Options{}))
	defer srv.Close()

	var created struct{ Session string }
	post(t, srv, "/v1/sessions", server.SessionConfig{
		Name: "testdata/dlatch.sim", Sim: string(sim),
		Tech: "nmos-4u", Model: "slope", Tables: "analytic",
		Rise: []string{"d"}, Fall: []string{"d"}, Fix: map[string]string{"wr": "1"},
		Slope: 1e-9, Top: 2,
	}, &created)
	var analyzed struct{ Report string }
	post(t, srv, "/v1/sessions/"+created.Session+"/analyze", struct{}{}, &analyzed)
	var edited struct {
		Barriers []struct{ Status, Report string }
	}
	post(t, srv, "/v1/sessions/"+created.Session+"/edits",
		map[string]string{"script": string(script)}, &edited)

	got := analyzed.Report
	for _, b := range edited.Barriers {
		got += "\n" + b.Status + "\n" + b.Report
	}
	got = strings.ReplaceAll(got, "crystald", "crystal")
	want, err := os.ReadFile(testdataPath + "golden/dlatch-edits.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("crystald differs from the CLI golden:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
