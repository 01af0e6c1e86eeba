// Command server runs the multi-tenant fuzzing service: a long-running
// host that accepts campaign submissions over HTTP, schedules them onto
// a bounded slot pool, and keeps every campaign durable so the whole
// service can stop and resume without losing work.
//
//	server -addr :8080 -data DIR [-resume] [-max-running N]
//	       [-max-per-tenant N] [-submit-rate R] [-unit-rate R]
//	       [-max-programs N] [-max-workers N] [-heartbeat DUR]
//
// The HTTP API (tenant = X-Tenant header, default "default"):
//
//	POST /api/campaigns                 submit a campaign config (JSON)
//	GET  /api/campaigns                 list the tenant's campaigns
//	GET  /api/campaigns/{id}            inspect one campaign's status
//	POST /api/campaigns/{id}/pause      durably suspend (frees its slot)
//	POST /api/campaigns/{id}/resume     continue a paused campaign
//	POST /api/campaigns/{id}/cancel     stop it; partial report remains
//	GET  /api/campaigns/{id}/report     the deterministic report document
//	GET  /api/campaigns/{id}/events     SSE: trace events + heartbeats
//	GET  /api/campaigns/{id}/repro?bug= reduced repro for one found bug
//	GET  /api/corpus                    cross-campaign bug corpus
//	GET  /api/tenants                   known tenants
//	GET  /debug/tenants/{tenant}/...    per-tenant metrics + events
//	GET  /debug/server/...              server-level metrics
//	GET  /healthz                       liveness
//
// On SIGINT/SIGTERM the server drains: it stops admitting work, pauses
// every running campaign (each syncs its journal), and writes the
// manifest. Restarting with -resume re-hosts the suspended campaigns;
// POST .../resume continues each exactly where it stopped — reports are
// bit-for-bit identical to an uninterrupted run.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	data := flag.String("data", "", "data directory (campaign state, corpus, manifest); empty = in-memory")
	resume := flag.Bool("resume", false, "re-host suspended campaigns from the data directory's manifest")
	maxRunning := flag.Int("max-running", 4, "campaigns executing concurrently; the rest queue")
	maxPerTenant := flag.Int("max-per-tenant", 8, "live campaigns allowed per tenant")
	submitRate := flag.Float64("submit-rate", 5, "per-tenant campaign submissions per second (burst 10)")
	unitRate := flag.Float64("unit-rate", 0, "per-tenant pipeline units per second (0 = unlimited)")
	maxPrograms := flag.Int("max-programs", 100000, "largest accepted campaign, in programs")
	maxWorkers := flag.Int("max-workers", 0, "largest accepted per-campaign worker count (0 = unlimited)")
	heartbeat := flag.Duration("heartbeat", time.Second, "SSE heartbeat cadence")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful shutdown budget before hard cancel")
	flag.Parse()

	s, err := server.New(server.Options{
		DataDir:      *data,
		MaxRunning:   *maxRunning,
		MaxPerTenant: *maxPerTenant,
		SubmitRate:   *submitRate,
		UnitRate:     *unitRate,
		MaxPrograms:  *maxPrograms,
		MaxWorkers:   *maxWorkers,
		Heartbeat:    *heartbeat,
		Resume:       *resume,
		Metrics:      metrics.NewRegistry(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fuzzing server listening on http://%s\n", ln.Addr())

	httpServer := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting connections, suspend every running
	// campaign durably, write the manifest, then exit.
	fmt.Fprintln(os.Stderr, "draining: pausing live campaigns...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpServer.Shutdown(drainCtx) //nolint:errcheck // drain continues regardless
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "drained; resume with -resume")
}
