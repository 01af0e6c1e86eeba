// The worker half of the fabric: an HTTP server that accepts one shard
// lease at a time and runs it as an ordinary durable campaign — the
// full pipeline+harness+journal stack, unchanged — over the shard's
// slice of the global seed space. The shard campaign's base seed is
// the global seed plus the shard's lower bound while the harness and
// chaos seeds stay global, so every per-unit decision (injected
// faults, retry jitter, flaky probes) is exactly the decision the
// uninterrupted single-process run would have made for that unit.
//
// Worker-level chaos (the PR 2 injector extended to process
// granularity) is decided per (shard, attempt) from a seeded hash, so
// a reassigned attempt is not deterministically re-killed:
//
//   - kill: the worker dies mid-shard (SIGKILL in cmd/worker; an
//     in-process worker just stops answering, which is
//     indistinguishable over HTTP);
//   - stall: the lease-status endpoint hangs — heartbeats stop while
//     the shard keeps running;
//   - corrupt: the shipped journal has one byte flipped, exercising
//     the coordinator's quarantine + re-run path.

package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Lease is one shard grant: the coordinator POSTs it to a worker,
// which runs global units [Lo, Hi) of the campaign Config describes.
type Lease struct {
	// ID names the grant; every status poll and the journal fetch key
	// on it. Unique per (shard, attempt).
	ID string `json:"id"`
	// Shard is the shard index; Lo and Hi bound its global unit range.
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Attempt numbers re-executions of the shard, starting at 0; the
	// worker-chaos decision is keyed on (Shard, Attempt) so a
	// reassigned shard draws fresh faults.
	Attempt int `json:"attempt"`
	// Config is the global campaign configuration — the same JSON shape
	// the fuzzing server accepts. The worker derives its shard-local
	// options from it; process-local fields never ship.
	Config cli.Config `json:"config"`
}

// LeaseStatus is one heartbeat answer.
type LeaseStatus struct {
	ID string `json:"id"`
	// State is the shard campaign's lifecycle state: "running", "done",
	// "cancelled", or "failed".
	State string `json:"state"`
	// Units counts folded units, the liveness signal behind the state.
	Units int `json:"units"`
	// Err carries the terminal error for failed runs.
	Err string `json:"err,omitempty"`
}

// ChaosOptions injects worker-level faults, the distribution-layer
// analogue of harness.ChaosOptions. Decisions are seeded per (shard,
// attempt) — never per wall clock — so a soak test can predict exactly
// which leases misbehave.
type ChaosOptions struct {
	// Seed keys every fault decision.
	Seed int64 `json:"seed"`
	// KillRate is the probability a lease kills its worker mid-shard.
	KillRate float64 `json:"kill_rate"`
	// StallRate is the probability a lease's heartbeats stall while the
	// shard keeps running.
	StallRate float64 `json:"stall_rate"`
	// CorruptRate is the probability a shipped journal has a byte
	// flipped.
	CorruptRate float64 `json:"corrupt_rate"`
}

// Enabled reports whether any fault class can fire.
func (o *ChaosOptions) Enabled() bool {
	return o != nil && (o.KillRate > 0 || o.StallRate > 0 || o.CorruptRate > 0)
}

// faults is one lease's drawn fault set.
type faults struct {
	kill      bool
	killAfter int // units admitted before the kill fires
	stall     bool
	corrupt   bool
}

// decide draws the fault set for one (shard, attempt), keyed on the
// chaos seed — deterministic wherever the lease lands.
func (o *ChaosOptions) decide(shard, attempt, units int) faults {
	var f faults
	if !o.Enabled() {
		return f
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "fabric-chaos:%d:%d:%d", o.Seed, shard, attempt)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	if rng.Float64() < o.KillRate {
		f.kill = true
		f.killAfter = units/2 + 1 // mid-shard, after real work has folded
	}
	if rng.Float64() < o.StallRate {
		f.stall = true
	}
	if rng.Float64() < o.CorruptRate {
		f.corrupt = true
	}
	return f
}

// WorkerOptions configures a worker server.
type WorkerOptions struct {
	// Dir is the scratch directory for shard state (one subdirectory
	// per lease, reset on reuse).
	Dir string
	// Name labels the worker in its own trace events.
	Name string
	// Chaos, when non-nil, injects worker-level faults.
	Chaos *ChaosOptions
	// Kill is the chaos kill behavior: cmd/worker installs SIGKILL on
	// itself; nil means the in-process simulation — the worker stops
	// answering HTTP entirely (indistinguishable from a dead process to
	// the coordinator) and cancels its shard.
	Kill func()
	// Metrics and Trace observe the worker's shard campaigns; nil
	// disables instrumentation.
	Metrics *metrics.Registry
	Trace   *metrics.Trace
}

// Worker hosts shard leases over HTTP: POST /leases grants one, GET
// /leases/{id} heartbeats it, GET /leases/{id}/journal ships the shard
// journal once the run is terminal, POST /leases/{id}/cancel stops it,
// GET /healthz answers liveness. One lease runs at a time; a grant
// arriving while another lease is still running is refused with 409.
type Worker struct {
	opts WorkerOptions
	mux  *http.ServeMux

	mu   sync.Mutex
	cur  *leaseRun
	dead bool

	leases *metrics.Counter
	kills  *metrics.Counter
	stalls *metrics.Counter
}

// leaseRun is one granted lease's lifetime.
type leaseRun struct {
	lease    Lease
	f        faults
	camp     *campaign.Campaign
	cancel   context.CancelFunc
	done     chan struct{}
	stateDir string
	err      error
}

// NewWorker returns a worker server rooted at opts.Dir.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	w := &Worker{
		opts:   opts,
		leases: opts.Metrics.Counter("fabric.worker.leases"),
		kills:  opts.Metrics.Counter("fabric.worker.chaos_kills"),
		stalls: opts.Metrics.Counter("fabric.worker.chaos_stalls"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /leases", w.handleLease)
	mux.HandleFunc("GET /leases/{id}", w.handleStatus)
	mux.HandleFunc("GET /leases/{id}/journal", w.handleJournal)
	mux.HandleFunc("POST /leases/{id}/cancel", w.handleCancel)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	w.mux = mux
	return w
}

// ServeHTTP implements http.Handler. A chaos-killed in-process worker
// answers nothing — the request hangs until the client gives up,
// exactly what a SIGKILLed process looks like from the far side.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if dead {
		// Drain the body first: the server only watches for the client
		// hanging up once the request body is consumed, so parking on
		// the context with an unread POST body would hang this handler
		// forever (past the client's own timeout), wedging server
		// shutdown.
		io.Copy(io.Discard, r.Body) //nolint:errcheck // the bytes are irrelevant
		<-r.Context().Done()
		return
	}
	w.mux.ServeHTTP(rw, r)
}

// Close cancels any running lease and waits for it to drain.
func (w *Worker) Close() {
	w.mu.Lock()
	lr := w.cur
	w.mu.Unlock()
	if lr != nil {
		lr.cancel()
		<-lr.done
	}
}

// die is the in-process kill: stop answering HTTP and cancel the shard.
func (w *Worker) die(lr *leaseRun) {
	w.kills.Inc()
	w.opts.Trace.Emit(metrics.Event{Kind: "fabric", Seq: -1, Stage: "worker",
		Detail: fmt.Sprintf("%s: chaos kill during lease %s", w.opts.Name, lr.lease.ID)})
	if w.opts.Kill != nil {
		w.opts.Kill() // a real process does not return from SIGKILL
		return
	}
	w.mu.Lock()
	w.dead = true
	w.mu.Unlock()
	lr.cancel()
}

// handleLease grants a shard lease and starts its campaign.
func (w *Worker) handleLease(rw http.ResponseWriter, r *http.Request) {
	var lease Lease
	if err := json.NewDecoder(r.Body).Decode(&lease); err != nil {
		http.Error(rw, fmt.Sprintf("bad lease: %v", err), http.StatusBadRequest)
		return
	}
	if lease.ID == "" || lease.Lo < 0 || lease.Hi <= lease.Lo {
		http.Error(rw, fmt.Sprintf("bad lease: id=%q range [%d,%d)", lease.ID, lease.Lo, lease.Hi), http.StatusBadRequest)
		return
	}
	opts, err := lease.Config.CampaignOptions()
	if err != nil {
		http.Error(rw, fmt.Sprintf("bad lease config: %v", err), http.StatusBadRequest)
		return
	}

	w.mu.Lock()
	if w.cur != nil {
		select {
		case <-w.cur.done:
			// The previous lease is terminal; replace it.
		default:
			id := w.cur.lease.ID
			w.mu.Unlock()
			http.Error(rw, fmt.Sprintf("busy with lease %s", id), http.StatusConflict)
			return
		}
	}

	// Shard remap: the shard campaign is the global campaign restricted
	// to [Lo, Hi) — base seed shifts by Lo so unit seeds stay global,
	// while the harness and chaos seeds inside opts already carry the
	// global Config.Seed and are left alone.
	opts.Seed = lease.Config.Seed + int64(lease.Lo)
	opts.Programs = lease.Hi - lease.Lo
	opts.StateDir = filepath.Join(w.opts.Dir, "lease-"+pathSafe(lease.ID))
	opts.Resume = false
	opts.Metrics = w.opts.Metrics
	opts.Trace = w.opts.Trace

	lr := &leaseRun{lease: lease, done: make(chan struct{}), stateDir: opts.StateDir}
	if w.opts.Chaos != nil {
		lr.f = w.opts.Chaos.decide(lease.Shard, lease.Attempt, opts.Programs)
	}

	// The admission gate carries the kill fault: scheduling-only by
	// construction, so the shard's folded records are untouched — a
	// killed lease's completed units are byte-identical to anyone
	// else's.
	admitted := 0
	opts.Gate = func(context.Context) error {
		admitted++
		if lr.f.kill && admitted > lr.f.killAfter {
			w.die(lr)
			return context.Canceled
		}
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	lr.cancel = cancel
	lr.camp = campaign.New(opts)
	w.cur = lr
	w.mu.Unlock()

	w.leases.Inc()
	if lr.f.stall {
		w.stalls.Inc()
	}
	w.opts.Trace.Emit(metrics.Event{Kind: "fabric", Seq: -1, Stage: "worker",
		Detail: fmt.Sprintf("%s: lease %s units [%d,%d) attempt %d", w.opts.Name, lease.ID, lease.Lo, lease.Hi, lease.Attempt)})

	// Grant first, start after: Start opens the journal (an fsync) and
	// spins up the pipeline, which can outlast the coordinator's call
	// budget on a loaded machine. The grant must be O(1) or lease POSTs
	// time out client-side while the worker starts the shard anyway —
	// an orphaned lease the coordinator can only see as a refusal.
	go func() {
		if err := lr.camp.Start(ctx); err != nil {
			lr.err = err
			cancel()
			close(lr.done)
			return
		}
		_, err := lr.camp.Wait()
		lr.err = err
		cancel()
		close(lr.done)
	}()

	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]string{"id": lease.ID, "state": "running"})
}

// lookup returns the current lease if it matches id.
func (w *Worker) lookup(id string) *leaseRun {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil || w.cur.lease.ID != id {
		return nil
	}
	return w.cur
}

// handleStatus answers one heartbeat poll. A stall-chaos lease hangs
// here — the shard keeps running, but the coordinator hears nothing.
func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	lr := w.lookup(r.PathValue("id"))
	if lr == nil {
		http.NotFound(rw, r)
		return
	}
	if lr.f.stall {
		<-r.Context().Done()
		return
	}
	st := LeaseStatus{ID: lr.lease.ID, Units: lr.camp.Status().Units}
	select {
	case <-lr.done:
		// Read the state only after observing done: reading it first
		// races the final transition, pairing a stale "running" with a
		// closed done channel — a phantom "failed" lease.
		st.State = lr.camp.State().String()
		if lr.err != nil {
			st.Err = lr.err.Error()
		}
		if st.State == "new" || st.State == "running" {
			// The run ended before (or without) a clean state
			// transition — Start failed, or the campaign died. Report
			// it terminal so the coordinator does not poll forever.
			st.State = "failed"
		}
	default:
		// Until done closes the lease is "running", whatever the
		// campaign state says: "new" means granted-but-not-started, and
		// a terminal state means the run goroutine hasn't published yet
		// — the journal is not shippable until it has.
		st.State = "running"
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(st)
}

// handleJournal ships the shard journal once the run is terminal.
func (w *Worker) handleJournal(rw http.ResponseWriter, r *http.Request) {
	lr := w.lookup(r.PathValue("id"))
	if lr == nil {
		http.NotFound(rw, r)
		return
	}
	select {
	case <-lr.done:
	default:
		http.Error(rw, "lease still running", http.StatusConflict)
		return
	}
	store, err := journal.Open(lr.stateDir)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	b, err := store.JournalBytes()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	if lr.f.corrupt && len(b) > 0 {
		// Chaos: flip one mid-file byte in the shipment (the on-disk
		// journal is untouched). The coordinator's CRC check quarantines
		// the record it lands in and re-runs the hole.
		b = append([]byte(nil), b...)
		b[len(b)/2] ^= 0xff
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(b)
}

// handleCancel stops the lease's campaign; the coordinator calls it on
// leases it has given up on (a grant whose reply never arrived, a
// worker presumed dead), so a live worker is not left running them.
func (w *Worker) handleCancel(rw http.ResponseWriter, r *http.Request) {
	lr := w.lookup(r.PathValue("id"))
	if lr == nil {
		http.NotFound(rw, r)
		return
	}
	lr.cancel()
	rw.WriteHeader(http.StatusOK)
	fmt.Fprintln(rw, "cancelling")
}

// pathSafe maps a lease ID onto a filesystem-safe directory name.
func pathSafe(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, id)
}
