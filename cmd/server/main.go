// Command server runs the fuzzing service: a long-running host that
// accepts campaign submissions over HTTP, schedules them onto a bounded
// slot pool, and keeps every campaign durable so the whole service can
// stop and resume without losing work. It is also the fabric's worker:
// cmd/campaign -shards spawns it as `server -max-running 1 -data DIR`
// and leases shards to it through the same API.
//
//	server -addr :8080 -data DIR [-resume] [-max-running N]
//	       [-max-programs N] [-max-workers N] [-heartbeat DUR]
//	       [-drain-timeout DUR]
//
// On startup it prints one announce line (the fabric spawner and CI
// parse it):
//
//	fuzzing server listening on http://ADDR
//
// The HTTP API:
//
//	POST /api/campaigns                 submit a campaign config (JSON)
//	GET  /api/campaigns                 list the campaigns
//	GET  /api/campaigns/{id}            inspect one campaign's status
//	POST /api/campaigns/{id}/pause      durably suspend (frees its slot)
//	POST /api/campaigns/{id}/resume     continue a paused campaign
//	POST /api/campaigns/{id}/cancel     stop it; partial report remains
//	GET  /api/campaigns/{id}/report     the deterministic report document
//	GET  /api/campaigns/{id}/journal    the raw journal of an ended campaign
//	GET  /api/campaigns/{id}/events     SSE: trace events + heartbeats
//	GET  /api/campaigns/{id}/repro?bug= reduced repro for one found bug
//	GET  /api/corpus                    cross-campaign bug corpus
//	GET  /debug/server/...              metrics, each campaign's under its ID
//	GET  /healthz                       liveness
//
// A submission with a "shard" range ({"index","attempt","lo","hi"})
// runs that slice of the campaign's seed space; it needs -data and is
// refused with 409, not queued, when no slot is free.
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
	maxPrograms := flag.Int("max-programs", 100000, "largest accepted campaign, in programs")
	maxWorkers := flag.Int("max-workers", 0, "largest accepted per-campaign worker count (0 = unlimited)")
	heartbeat := flag.Duration("heartbeat", time.Second, "SSE heartbeat cadence")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful shutdown budget before hard cancel")
	flag.Parse()

	s, err := server.New(server.Options{
		DataDir:     *data,
		MaxRunning:  *maxRunning,
		MaxPrograms: *maxPrograms,
		MaxWorkers:  *maxWorkers,
		Heartbeat:   *heartbeat,
		Resume:      *resume,
		Metrics:     metrics.NewRegistry(),
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
