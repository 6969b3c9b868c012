// Command crystald is the long-lived timing-analysis service: it holds
// parsed netlists, compiled network views and stage-database generations
// resident in a bounded session cache and answers analyze/edit/critical
// queries over HTTP/JSON — the service form of the crystal CLI's designer
// loop, where re-verifying after an edit costs an incremental drain
// instead of a fresh parse-compile-analyze.
//
// Usage:
//
//	crystald [-addr :8653] [-max-sessions 16] [-hier off]
//	         [-drain-timeout 30s] [-snapshot-dir DIR]
//	         [-job-workers 2] [-job-queue 32]
//
// Every analyze, edit script and simulate runs as a job on a bounded
// worker pool (-job-workers) behind a bounded queue (-job-queue; full =
// 429 + Retry-After). A request waits for its job, unless it was
// submitted with {"async": true}: then the daemon answers 202 with a job
// id, and GET /v1/jobs/{id} polls for the result.
//
// With -snapshot-dir, every parsed session is persisted as a binary
// .simx snapshot keyed by its network identity (source hash + tech +
// report name), and a POST over identical content — including after a
// daemon restart — loads the snapshot instead of re-parsing the .sim
// text. Warm loads go through the shared network arena: every session
// of the same chip shares one read-only network, with copy-on-edit
// detach onto a private copy at the first edit barrier, and the arena
// forgets the network when its last session goes (see docs/SERVER.md on
// RSS accounting).
//
// The API is documented in docs/SERVER.md. The daemon logs the address
// it bound, so -addr 127.0.0.1:0 picks a free port. On SIGTERM/SIGINT it
// drains gracefully: the listener closes, and in-flight requests and
// admitted jobs share one -drain-timeout deadline to finish before the
// process exits. /metrics serves the service counters as JSON.
//
// -hier on enables hierarchical macromodel analysis for every session:
// replicated instances (annotated @ inst in the .sim) analyze one
// representative and stamp the timing onto the other copies. Results are
// bit-identical either way; analyze responses then carry a "hier"
// provenance block and /metrics a hier.* section.
//
// -debug-addr starts a second HTTP listener serving only net/http/pprof
// (/debug/pprof/...). It is separate from -addr so profiling stays off
// any exposed service port; bind it to localhost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// readHeaderTimeout is how long a connection may take to deliver its
// request headers before the daemon drops it (slow-loris bound).
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8653", "listen address")
	maxSessions := flag.Int("max-sessions", 16, "LRU session cache bound (memory knob)")
	hier := flag.String("hier", "off", "hierarchical macromodel analysis over instance annotations: on or off (results are bit-identical either way)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this second address (empty = disabled; bind to localhost)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown grace period")
	snapshotDir := flag.String("snapshot-dir", "", "persist .simx session snapshots here for warm starts (empty = disabled)")
	jobWorkers := flag.Int("job-workers", 2, "job plane worker-pool size: analyzes, edit scripts and simulates running at once, sync or async")
	jobQueue := flag.Int("job-queue", 32, "job queue bound; a full queue answers 429 + Retry-After, sync or async")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "crystald: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *hier != "on" && *hier != "off" {
		fmt.Fprintf(os.Stderr, "crystald: -hier: want on or off, got %q\n", *hier)
		os.Exit(1)
	}

	sv := server.New(server.Options{
		MaxSessions:   *maxSessions,
		Hier:          *hier == "on",
		SnapshotDir:   *snapshotDir,
		JobWorkers:    *jobWorkers,
		JobQueueDepth: *jobQueue,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crystald:", err)
		os.Exit(1)
	}
	// Request bodies are bounded inside the handlers (server.MaxBodyBytes);
	// the header timeout bounds what a client can hold open before one.
	httpSrv := &http.Server{Handler: sv, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("crystald: listening on %s (max %d sessions)", ln.Addr(), *maxSessions)

	if *debugAddr != "" {
		// Profiling side mux: only the pprof handlers, on its own listener,
		// so a CPU/heap capture against a loaded daemon never needs the
		// service port. Best effort — a dead debug listener is logged, not
		// fatal.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("crystald: pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Printf("crystald: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "crystald:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// The listener's Shutdown stops admission and waits for in-flight
	// requests (a sync request waits for its job); WaitJobs then waits
	// for the admitted async jobs. One deadline covers both, so the whole
	// drain takes at most -drain-timeout.
	deadline := time.Now().Add(*drainTimeout)
	log.Printf("crystald: draining (grace %s)", *drainTimeout)
	shutdownCtx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("crystald: forced exit: %v", err)
		os.Exit(1)
	}
	if !sv.WaitJobs(time.Until(deadline)) {
		log.Printf("crystald: job plane did not drain within %s", *drainTimeout)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "crystald:", err)
		os.Exit(1)
	}
	log.Printf("crystald: drained, bye")
}
