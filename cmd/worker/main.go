// Command worker hosts one fabric worker: an HTTP server that accepts
// shard leases from a fabric coordinator (cmd/campaign -shards) and
// runs each as a durable shard campaign — the full pipeline, harness,
// and journal stack — shipping the shard journal back for merge.
//
//	worker -addr 127.0.0.1:0 [-dir DIR] [-name NAME] [-debug-addr ADDR]
//	       [-chaos-seed N -chaos-kill R -chaos-stall R -chaos-corrupt R]
//
// On startup it prints one announce line the spawner and CI parse:
//
//	worker NAME listening on http://ADDR pid=PID
//
// The chaos flags extend the campaign chaos injector to process
// granularity for soak testing: kill makes a drawn lease SIGKILL the
// whole process mid-shard, stall hangs its heartbeats, and corrupt
// flips a byte in the shipped journal. Decisions are seeded per
// (shard, attempt), so a soak run is reproducible.
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

	"repro/internal/fabric"
	"repro/internal/metrics"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "HTTP listen address (:0 picks a free port)")
	dir := flag.String("dir", "", "scratch directory for shard state; empty = a fresh temp dir")
	name := flag.String("name", "", "worker name in ledgers and logs; empty = worker-PID")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /events on this address")
	chaosSeed := flag.Int64("chaos-seed", 0, "seed for worker-level chaos decisions")
	chaosKill := flag.Float64("chaos-kill", 0, "probability a lease SIGKILLs this worker mid-shard")
	chaosStall := flag.Float64("chaos-stall", 0, "probability a lease's heartbeats stall")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "probability a shipped journal has a byte flipped")
	flag.Parse()

	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if *dir == "" {
		d, err := os.MkdirTemp("", "fabric-worker-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(d)
		*dir = d
	}

	var chaos *fabric.ChaosOptions
	if *chaosKill > 0 || *chaosStall > 0 || *chaosCorrupt > 0 {
		chaos = &fabric.ChaosOptions{
			Seed:        *chaosSeed,
			KillRate:    *chaosKill,
			StallRate:   *chaosStall,
			CorruptRate: *chaosCorrupt,
		}
	}

	reg := metrics.NewRegistry()
	trace := metrics.NewTrace(4096)
	if *debugAddr != "" {
		srv, err := metrics.Serve(*debugAddr, reg, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug server listening on http://%s\n", srv.Addr())
	}

	w := fabric.NewWorker(fabric.WorkerOptions{
		Dir:   *dir,
		Name:  *name,
		Chaos: chaos,
		// A chaos kill takes the whole process down, exactly like the
		// fault it simulates.
		Kill: func() {
			syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck // no return from SIGKILL
		},
		Metrics: reg,
		Trace:   trace,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(1)
	}
	// The announce line: the fabric spawner and CI's chaos soak parse
	// the address and pid from it.
	fmt.Printf("worker %s listening on http://%s pid=%d\n", *name, ln.Addr(), os.Getpid())

	httpServer := &http.Server{Handler: w}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(1)
	}
	w.Close()
}
