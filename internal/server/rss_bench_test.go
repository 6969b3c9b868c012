// BENCH_7's RSS-vs-session-count curve: per-session memory for N
// concurrent sessions of the E6-XL chip (chip:32,10 — 100k+ nodes,
// ~182k transistors) aliasing one arena view. (BENCH_7 also recorded a
// per-session-copy arm; the option that selected it is gone.) The
// benchmark is memory-shaped, not time-shaped: run it with
// -benchtime 1x and read the reported metrics —
//
//	heapMB/session   live Go heap added per session (graph copies)
//	mappedMB         the arena's resident mapped bytes (paid once)
//	totalMB          heap delta + mapped bytes for the whole fleet
//
// totalMB should be near-flat in N: one mapping plus per-session
// bookkeeping.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var (
	rssOnce sync.Once
	rssSim  string // E6-XL .sim source text
	rssDir  string // snapshot dir pre-seeded with the E6-XL .simx
)

// rssCorpus generates the E6-XL netlist once and seeds a snapshot
// directory with its .simx, so every measured create is a warm load.
func rssCorpus(b *testing.B) {
	b.Helper()
	rssOnce.Do(func() {
		p := tech.NMOS4()
		nw, err := gen.ChipGrid(p, 32, 10)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := netlist.WriteSim(&buf, nw); err != nil {
			panic(err)
		}
		rssSim = buf.String()
		dir, err := os.MkdirTemp("", "rssbench")
		if err != nil {
			panic(err)
		}
		rssDir = dir
		srv := httptest.NewServer(New(Options{SnapshotDir: dir}))
		defer srv.Close()
		if resp := rssCreate(srv, rssSim, 3); resp.Source != "parse" {
			panic(fmt.Sprintf("seed create source = %q, want parse", resp.Source))
		}
	})
}

// rssCreate posts a session over the E6-XL sim with a distinct Top (a
// distinct session key, same network identity) and returns the reply.
func rssCreate(srv *httptest.Server, sim string, top int) createResponse {
	cfg := SessionConfig{Name: "chip-32x10", Sim: sim, Tech: "nmos-4u", Top: top}
	body, err := json.Marshal(cfg)
	if err != nil {
		panic(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out createResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	if out.Session == "" {
		panic("create returned no session id")
	}
	return out
}

func liveHeap() uint64 {
	// Two cycles: mark+free, then finish sweeping, so HeapAlloc is the
	// settled live set.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func BenchmarkSessionRSS(b *testing.B) {
	if !netlist.MmapSupported {
		b.Skip("no mmap on this platform")
	}
	rssCorpus(b)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shared/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				srv := httptest.NewServer(New(Options{SnapshotDir: rssDir}))
				before := liveHeap()
				for k := 0; k < n; k++ {
					if resp := rssCreate(srv, rssSim, 3+k); resp.Source != "mmap" {
						b.Fatalf("session %d source = %q, want mmap", k, resp.Source)
					}
				}
				after := liveHeap()
				var heapDelta float64
				if after > before {
					heapDelta = float64(after - before)
				}
				var m MetricsSnapshot
				mresp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					b.Fatal(err)
				}
				if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
					b.Fatal(err)
				}
				mresp.Body.Close()
				mapped := float64(m.NetArena.ResidentBytes)
				b.ReportMetric(heapDelta/float64(n)/1e6, "heapMB/session")
				b.ReportMetric(mapped/1e6, "mappedMB")
				b.ReportMetric((heapDelta+mapped)/1e6, "totalMB")
				srv.Close()
			}
		})
	}
}
