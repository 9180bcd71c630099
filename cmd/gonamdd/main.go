// Command gonamdd serves simulations over HTTP: clients submit jobs as
// JSON, a bounded multi-tenant scheduler time-slices them over a shared
// worker pool, and energies, trajectory frames, and Projections
// summaries stream back as NDJSON. Every incomplete job checkpoints on a
// cadence and on graceful shutdown; a restarted server rescans its state
// directory and resumes each job bit-identically.
//
// Usage:
//
//	gonamdd -addr :8765 -state /var/lib/gonamd
//	curl -d '{"system":{"preset":"water","side":12},"steps":1000}' localhost:8765/jobs
//	curl localhost:8765/jobs/j000001/events
//	curl localhost:8765/jobs/j000001/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"gonamd/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a stalled or slow-drip connection is dropped
// instead of holding a server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the daemon's HTTP server. It sets a header read
// timeout but no write timeout: the NDJSON event and metrics streams
// stay open for a job's whole run.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8765", "listen address")
	state := flag.String("state", "gonamdd-state", "state directory: specs, checkpoints, trajectories")
	workers := flag.Int("workers", 0, "worker pool size: concurrent job slices (0 = all cores)")
	slice := flag.Int("slice", 25, "scheduling quantum: engine steps per job slice")
	quota := flag.Int("quota", 2, "per-tenant cap on concurrently running jobs")
	ckptEvery := flag.Int64("ckptevery", 100, "default checkpoint cadence, steps")
	metricsEvery := flag.Duration("metricsevery", time.Second, "per-job FTDC telemetry sampling interval (0 = server default 1s, negative disables)")
	flag.Parse()

	sched, err := serve.NewScheduler(serve.Config{
		StateDir:        *state,
		Workers:         *workers,
		SliceSteps:      *slice,
		TenantQuota:     *quota,
		CheckpointEvery: *ckptEvery,
		MetricsInterval: *metricsEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := len(sched.List("")); n > 0 {
		log.Printf("gonamdd: rescanned %s: %d job(s)", *state, n)
	}

	srv := newHTTPServer(*addr, serve.NewServer(sched))
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("gonamdd: serving on %s (state %s)", *addr, *state)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting requests, drain running slices,
	// and checkpoint every incomplete job so the next start resumes it.
	log.Printf("gonamdd: signal received, checkpointing jobs")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("gonamdd: http shutdown: %v", err)
	}
	if err := sched.Stop(); err != nil {
		log.Fatalf("gonamdd: checkpointing on shutdown: %v", err)
	}
	log.Printf("gonamdd: all jobs checkpointed, exiting")
}
