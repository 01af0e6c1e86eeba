// The fabric's central promise, proved end to end: a campaign sharded
// across workers — with workers killed mid-shard, heartbeats stalled,
// and shipments corrupted — merges to a report byte-identical to an
// uninterrupted single-process run. The chaos here is seeded and
// searched for, not sampled, so every fault class provably fires on
// every run of the test.

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/server"
)

// soakConfig is a campaign small enough for CI but rich enough to
// exercise the full pipeline: mutations on, harness chaos injecting
// panics, hangs, transients, and flaky probes. The watchdog sits far
// above any real compile, so no verdict depends on the wall clock:
// injected hangs still end TimedOut, at once.
func soakConfig(programs int) cli.Config {
	return cli.Config{
		Seed:           20220401,
		Programs:       programs,
		Workers:        2,
		CompileTimeout: cli.Duration(10 * time.Second),
		Retries:        2,
		Chaos:          0.1,
	}
}

// refDoc runs the campaign uninterrupted in-process and returns its
// deterministic report document — the bytes the sharded run must match.
func refDoc(t *testing.T, cfg cli.Config) []byte {
	t.Helper()
	opts, err := cfg.CampaignOptions()
	if err != nil {
		t.Fatalf("CampaignOptions: %v", err)
	}
	report := campaign.Run(opts)
	if report.Err != nil {
		t.Fatalf("reference run failed: %v", report.Err)
	}
	return marshalDoc(t, report)
}

func marshalDoc(t *testing.T, report *campaign.Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(report.Doc(), "", "  ")
	if err != nil {
		t.Fatalf("marshal doc: %v", err)
	}
	return b
}

// startWorkers brings up n in-process workers — campaign servers with
// one slot, as cmd/campaign spawns them — over httptest and returns
// their clients. timeout is the per-call client budget — it is what
// turns a dead worker's silence into a failed call.
func startWorkers(t *testing.T, n int, chaos *server.ChaosOptions, timeout time.Duration) []*Client {
	t.Helper()
	var clients []*Client
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		s, err := server.New(server.Options{DataDir: t.TempDir(), MaxRunning: 1, Chaos: chaos})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s)
		t.Cleanup(srv.Close)
		// LIFO: stop the campaigns before closing the HTTP server, and
		// both before the data directory is removed.
		t.Cleanup(s.Close)
		clients = append(clients, NewClientWith(name, srv.URL, &http.Client{Timeout: timeout}))
	}
	return clients
}

// executedAttempts simulates which attempts of one shard actually run
// under the coordinator's one-lease-per-shard retry policy: a
// kill, stall, or corrupt draw fails the attempt, the first clean draw
// covers the shard. Returns the executed fault draws and whether a
// clean attempt exists within the budget.
func executedAttempts(o server.ChaosOptions, shard, maxAttempts, units int) ([]server.Faults, bool) {
	var out []server.Faults
	for a := 0; a < maxAttempts; a++ {
		f := o.Decide(shard, a, units)
		out = append(out, f)
		if !f.Kill && !f.Stall && !f.Corrupt {
			return out, true
		}
	}
	return out, false
}

// findSoakSeed searches the deterministic chaos space for a seed that
// makes the soak a proof rather than a dice roll: exactly one kill
// fires across all executed attempts (so exactly one in-process worker
// goes permanently dead), at least one attempt stalls its heartbeats,
// at least one ships a corrupt journal, and every shard still reaches
// a clean attempt within the budget.
func findSoakSeed(t *testing.T, tmpl server.ChaosOptions, shards, maxAttempts, units int) int64 {
	t.Helper()
	for seed := int64(1); seed < 1_000_000; seed++ {
		o := tmpl
		o.Seed = seed
		kills, stalls, corrupts := 0, 0, 0
		ok := true
		for s := 0; s < shards; s++ {
			run, clean := executedAttempts(o, s, maxAttempts, units)
			if !clean {
				ok = false
				break
			}
			for _, f := range run {
				if f.Kill {
					kills++
				}
				if f.Stall && !f.Kill {
					stalls++
				}
				if f.Corrupt && !f.Kill && !f.Stall {
					corrupts++
				}
			}
		}
		if ok && kills == 1 && stalls >= 1 && corrupts >= 1 {
			return seed
		}
	}
	t.Fatal("no suitable chaos seed in search space")
	return 0
}

// TestFabricCleanRunMatchesSingleProcess is the base case: no
// worker-level chaos, shards ≠ workers, full harness chaos inside the
// units — the merged report must byte-match the single-process run.
func TestFabricCleanRunMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	cfg := soakConfig(40)
	want := refDoc(t, cfg)

	clients := startWorkers(t, 3, nil, 2*time.Second)
	res, err := Run(context.Background(), Options{
		Config:         cfg,
		Shards:         5,
		Workers:        clients,
		HeartbeatEvery: 25 * time.Millisecond,
		CallTimeout:    2 * time.Second,
		RetryBackoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	if got := marshalDoc(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("sharded report diverged from single-process run\n--- sharded ---\n%s\n--- single ---\n%s", got, want)
	}
	if res.Faults.Faults() {
		t.Errorf("clean run reported fabric faults:\n%s", res.Faults)
	}
	if res.Faults.ShardsDone != 5 {
		t.Errorf("ShardsDone = %d, want 5", res.Faults.ShardsDone)
	}
}

// TestFabricChaosSoak is the tentpole proof: workers killed mid-shard,
// heartbeats stalled, and a shipped journal corrupted — and the merged
// report still byte-matches the uninterrupted single-process run,
// with every fault visible in the ledger and metrics.
func TestFabricChaosSoak(t *testing.T) {
	t.Parallel()
	const (
		programs    = 60
		shards      = 6
		maxAttempts = 5
	)
	cfg := soakConfig(programs)
	want := refDoc(t, cfg)

	tmpl := server.ChaosOptions{
		KillRate:    0.25,
		StallRate:   0.25,
		CorruptRate: 0.25,
	}
	tmpl.Seed = findSoakSeed(t, tmpl, shards, maxAttempts, programs/shards)
	t.Logf("chaos seed %d", tmpl.Seed)

	// Four workers: the seed guarantees exactly one goes permanently
	// dead, leaving three to absorb reassignments. The heartbeat budget
	// (misses × call timeout) is deliberately generous — four shard
	// campaigns starting at once under -race can starve the process for
	// hundreds of milliseconds, and a twitchy death verdict would turn
	// every worker into a presumed corpse before its first unit folds.
	clients := startWorkers(t, 4, &tmpl, time.Second)
	reg := metrics.NewRegistry()
	trace := metrics.NewTrace(1024)
	res, err := Run(context.Background(), Options{
		Config:           cfg,
		Shards:           shards,
		Workers:          clients,
		HeartbeatEvery:   50 * time.Millisecond,
		HeartbeatMisses:  4,
		CallTimeout:      1200 * time.Millisecond,
		MaxAttempts:      maxAttempts,
		RetryBackoff:     25 * time.Millisecond,
		BreakerThreshold: 4, // one dead worker must not cascade
		Metrics:          reg,
		Trace:            trace,
	})
	if err != nil {
		for _, ev := range trace.Tail(1024) {
			if ev.Kind == "fabric" {
				t.Logf("trace: %s", ev.Detail)
			}
		}
		t.Fatalf("fabric run under chaos: %v\nledger:\n%s", err, res.Faults)
	}

	if got := marshalDoc(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("chaos-soaked sharded report diverged from single-process run\n--- sharded ---\n%s\n--- single ---\n%s", got, want)
	}

	led := res.Faults
	if led.ShardsDone != shards {
		t.Errorf("ShardsDone = %d, want %d\n%s", led.ShardsDone, shards, led)
	}
	if led.WorkerDeaths == 0 {
		t.Errorf("no worker deaths recorded despite kill+stall chaos\n%s", led)
	}
	if led.Reassignments == 0 {
		t.Errorf("no reassignments recorded despite failed attempts\n%s", led)
	}
	if led.CorruptShippedRecords == 0 {
		t.Errorf("no corrupt shipped records recorded despite corrupt chaos\n%s", led)
	}
	if len(led.DegradedShards) > 0 {
		t.Errorf("shards degraded in a seed chosen to avoid it: %v", led.DegradedShards)
	}

	snap := reg.Snapshot()
	if snap.Counters["fabric.worker_deaths"] != int64(led.WorkerDeaths) {
		t.Errorf("metrics deaths %d != ledger deaths %d", snap.Counters["fabric.worker_deaths"], led.WorkerDeaths)
	}
	if snap.Counters["fabric.reassignments"] != int64(led.Reassignments) {
		t.Errorf("metrics reassignments %d != ledger %d", snap.Counters["fabric.reassignments"], led.Reassignments)
	}
	if snap.Counters["journal_corrupt_records"] == 0 {
		t.Error("journal_corrupt_records counter never incremented for corrupt shipments")
	}
	if snap.Gauges["fabric.units_merged"] != int64(programs) {
		t.Errorf("fabric.units_merged = %d, want %d", snap.Gauges["fabric.units_merged"], programs)
	}
	var sawFabricEvent bool
	for _, ev := range trace.Tail(1024) {
		if ev.Kind == "fabric" {
			sawFabricEvent = true
			break
		}
	}
	if !sawFabricEvent {
		t.Error("no fabric trace events emitted")
	}
}

// TestDispatchLeasesEachShardOnce pins the one-lease-per-shard rule:
// with one shard merged, another leased long ago and still running, and
// two workers idle, dispatch grants no second lease of the running
// shard. A slow attempt is waited out; only missed heartbeats end it.
func TestDispatchLeasesEachShardOnce(t *testing.T) {
	t.Parallel()
	clients := startWorkers(t, 3, nil, time.Second)
	c, err := newCoordinator(Options{Config: soakConfig(4), Shards: 2, Workers: clients})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	merged, running := c.shards[0], c.shards[1]
	merged.attempts, merged.done = 1, true
	running.attempts, running.running = 1, true
	c.workers[0].busy = true // holds the running lease
	c.mu.Unlock()

	for i := 0; i < 3; i++ {
		c.dispatch(context.Background())
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if running.attempts != 1 {
		t.Errorf("running shard leased %d times, want 1", running.attempts)
	}
	for _, w := range c.workers[1:] {
		if w.busy {
			t.Errorf("idle worker %s was handed a lease", w.client.Name())
		}
	}
	if c.ledger.Reassignments != 0 {
		t.Errorf("ledger counts %d reassignments, want 0", c.ledger.Reassignments)
	}
}

// TestDispatchSkipsWorkerDeclaredDead pins that a death verdict
// quarantines the worker at once: after one outcomeDied on w0, with w1
// idle, the shard's next lease goes to w1 rather than back to the worker
// that just missed its heartbeats.
func TestDispatchSkipsWorkerDeclaredDead(t *testing.T) {
	t.Parallel()
	var clients []*Client
	for _, name := range []string{"w0", "w1"} {
		// Never called: the test drives the scheduler, not the protocol.
		clients = append(clients, NewClientWith(name, "http://127.0.0.1:1", &http.Client{Timeout: time.Second}))
	}
	c, err := newCoordinator(Options{Config: soakConfig(4), Shards: 1, Workers: clients})
	if err != nil {
		t.Fatal(err)
	}
	sh := c.shards[0]
	c.mu.Lock()
	w := c.takeWorkerLocked()
	sh.attempts, sh.running = 1, true
	c.mu.Unlock()
	if w != c.workers[0] {
		t.Fatalf("first lease went to %s, want w0", w.client.Name())
	}
	c.settleAttempt(w, sh, 0, outcomeDied)

	c.mu.Lock()
	defer c.mu.Unlock()
	sh.notBefore = time.Time{} // skip the retry backoff
	if next := c.takeWorkerLocked(); next != c.workers[1] {
		name := "no worker"
		if next != nil {
			name = next.client.Name()
		}
		t.Fatalf("lease after w0's death went to %s, want w1", name)
	}
	if st := c.workers[0].breaker.State(); st != harness.BreakerOpen {
		t.Errorf("dead worker's breaker is %s, want open", st)
	}
	if c.ledger.WorkerDeaths != 1 {
		t.Errorf("ledger counts %d worker deaths, want 1", c.ledger.WorkerDeaths)
	}
}

// TestFabricDegradesWhenWorkersExhausted pins graceful degradation:
// with the only worker dying on its first lease and refusing
// everything after, the run must terminate with a partial report and a
// fault ledger naming the abandoned shards — never hang.
func TestFabricDegradesWhenWorkersExhausted(t *testing.T) {
	t.Parallel()
	cfg := soakConfig(8)
	chaos := &server.ChaosOptions{Seed: 1, KillRate: 1} // every lease kills its worker
	// The per-call budget must cover a live worker's lease grant on a
	// loaded machine: a grant answered late reads as a refusal, and the
	// worker then dies without the death ever being observed.
	clients := startWorkers(t, 1, chaos, time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		Config:           cfg,
		Shards:           2,
		Workers:          clients,
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatMisses:  2,
		CallTimeout:      1200 * time.Millisecond,
		MaxAttempts:      2,
		RetryBackoff:     5 * time.Millisecond,
		BreakerThreshold: 2,
	})
	if ctx.Err() != nil {
		t.Fatal("degraded run hit the watchdog deadline — the fabric hung instead of degrading")
	}
	if err == nil {
		t.Fatal("exhausted-worker run reported success")
	}
	if res == nil || res.Report == nil {
		t.Fatal("degraded run returned no partial report")
	}
	if res.Report.Complete() {
		t.Error("degraded report claims completeness")
	}
	if res.Report.Doc().Error == "" {
		t.Error("degraded report doc carries no error")
	}
	if len(res.Faults.DegradedShards) == 0 {
		t.Errorf("no degraded shards in ledger:\n%s", res.Faults)
	}
	if res.Faults.WorkerDeaths == 0 {
		t.Errorf("worker death not recorded:\n%s", res.Faults)
	}
}

// newWorker starts one in-process worker and returns a client for it.
func newWorker(t *testing.T, name string) *Client {
	t.Helper()
	clients := startWorkers(t, 1, nil, 5*time.Second)
	return NewClientWith(name, clients[0].base, clients[0].hc)
}

// waitLease polls a lease's state, back to back, until it leaves
// "running" and returns that state.
func waitLease(t *testing.T, client *Client, id string) string {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		state, err := client.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if state != "running" {
			return state
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never finished")
		}
	}
}

// TestWorkerProtocol pins the worker side of the campaign API: a busy
// server refuses a second shard with 409 rather than queueing it, an
// unknown campaign is 404, the journal is 409 while the shard runs, and
// the shipped journal folds to full shard coverage.
func TestWorkerProtocol(t *testing.T) {
	t.Parallel()
	client := newWorker(t, "proto")
	ctx := context.Background()

	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := client.Status(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("status of unknown campaign: %v, want 404", err)
	}

	cfg := soakConfig(40)
	cfg.Shard = &cli.ShardRange{Index: 0, Lo: 0, Hi: 40}
	id, err := client.Lease(ctx, cfg)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	// A second grant while the first runs must be refused, not queued.
	second := soakConfig(40)
	second.Shard = &cli.ShardRange{Index: 1, Lo: 0, Hi: 40}
	if _, err := client.Lease(ctx, second); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("second concurrent lease: %v, want 409", err)
	}
	if _, err := client.Journal(ctx, id); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("journal of a running lease: %v, want 409", err)
	}

	if state := waitLease(t, client, id); state != "done" {
		t.Fatalf("lease ended in state %q", state)
	}
	image, err := client.Journal(ctx, id)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if len(image) == 0 {
		t.Fatal("terminal lease shipped an empty journal")
	}

	// The shipped journal folds to full shard coverage.
	global := soakConfig(40)
	opts, err := global.CampaignOptions()
	if err != nil {
		t.Fatal(err)
	}
	m := campaign.NewMerger(opts)
	if _, err := foldImage(m, image, 0); err != nil {
		t.Fatalf("folding shipped journal: %v", err)
	}
	if missing := m.Missing(0, 40); len(missing) != 0 {
		t.Errorf("shipped journal missing units %v", missing)
	}
}

// foldImage folds a shipped journal image into m, for tests.
func foldImage(m *campaign.Merger, image []byte, offset int) (int, error) {
	folded := 0
	corruptions, err := journal.ReplayBytes(image, func(_ int64, payload []byte) error {
		ok, ferr := m.FoldRecord(payload, offset)
		if ferr != nil {
			return ferr
		}
		if ok {
			folded++
		}
		return nil
	})
	if err == nil && len(corruptions) > 0 {
		err = fmt.Errorf("%d corrupt records in clean shipment", len(corruptions))
	}
	return folded, err
}

// TestWorkerStatusNeverPhantomFails runs lease after lease on one
// worker, polling each one's status across its completion. A healthy
// lease must read "running" until it reads "done" — never a phantom
// "failed" from a stale state paired with an ended run — and its
// journal must ship at once, with the next lease granted right after.
func TestWorkerStatusNeverPhantomFails(t *testing.T) {
	t.Parallel()
	client := newWorker(t, "phantom")
	ctx := context.Background()

	for round := 0; round < 8; round++ {
		cfg := soakConfig(2)
		cfg.Shard = &cli.ShardRange{Index: round, Lo: 0, Hi: 2}
		id, err := client.Lease(ctx, cfg)
		if err != nil {
			t.Fatalf("round %d: lease: %v", round, err)
		}
		if state := waitLease(t, client, id); state != "done" {
			t.Fatalf("round %d: healthy lease reported %q", round, state)
		}
		if _, err := client.Journal(ctx, id); err != nil {
			t.Fatalf("round %d: journal after done: %v", round, err)
		}
	}
}
