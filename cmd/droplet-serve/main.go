// Command droplet-serve runs the simulation service: a JSON HTTP API
// over the experiment scheduler with a canonical-hash result cache.
//
// Usage:
//
//	droplet-serve -addr :8080 -jobs 4
//
// Every request names its own machine (scale, cores, prefetcher,
// per-level replacement, sampling), so the process has no machine flags:
// -jobs bounds the parallel simulations and live traces. -scale is still
// accepted, and ignored, because bench/wserve.go launches the service
// with it.
//
// Endpoints:
//
//	POST /v1/simulate        run (or fetch the cached result of) one canonical request
//	GET  /v1/results/{hash}  fetch a completed result by canonical hash
//	GET  /v1/stream/{hash}   stream the epoch-telemetry JSONL replay of a completed hash
//	GET  /healthz            liveness probe
//	GET  /metrics            JSON counters
//
// The process exits cleanly on SIGINT/SIGTERM: in-flight requests get a
// grace period, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"droplet/internal/exp"
	"droplet/internal/serve"
	"droplet/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		_       = flag.String("scale", "", "ignored: every request names its own scale")
		jobs    = flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (also bounds live traces)")
		grace   = flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight requests")
		verbose = flag.Bool("v", false, "log one line per executed simulation")
	)
	flag.Parse()

	// The suite's scale and policies only shape experiment tables; a
	// served request resolves its own.
	suite := exp.NewSuite(workload.Quick)
	suite.Jobs = *jobs
	if *verbose {
		suite.Progress = func(line string) { fmt.Fprintln(os.Stderr, "droplet-serve:", line) }
	}

	srv := &http.Server{Handler: serve.New(suite)}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-serve:", err)
		os.Exit(1)
	}
	// The bound address goes to stdout so harnesses using port 0 can
	// discover the endpoint.
	fmt.Printf("droplet-serve: listening on http://%s (jobs=%d)\n", ln.Addr(), *jobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "droplet-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("droplet-serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "droplet-serve: shutdown:", err)
			os.Exit(1)
		}
	}
}
