// Package fabric shards one campaign across worker processes and
// merges the results into a report byte-identical to an uninterrupted
// single-process run. The determinism the rest of the system already
// proves — a commutative, seq-keyed fold over per-unit records whose
// content depends only on the unit's seed — is exactly what makes
// distribution safe: the coordinator partitions the seed space into
// contiguous shards, leases each shard to a worker running the full
// pipeline+harness+journal stack, ships the shard journals back, and
// folds every record through campaign.Merger, which dedups per global
// seq. Re-executing a shard (because its worker died, stalled, or
// shipped an incomplete journal) can therefore never double-count and
// never diverge: the first fold of each unit wins, and every copy of a
// unit's record is bit-for-bit the same bytes.
//
// The robustness layer:
//
//   - one lease per shard: a shard has at most one attempt running at
//     a time, polled on a fixed cadence; HeartbeatMisses consecutive
//     failed polls declare the worker dead and the shard is reassigned;
//   - bounded retries with backoff: each shard gets MaxAttempts lease
//     attempts, exponentially backed off, and each worker sits behind a
//     harness.Breaker at worker granularity — a worker that keeps
//     failing leases is quarantined exactly like a crashing compiler;
//   - graceful degradation: a shard that exhausts its attempts is
//     abandoned — the run ends with a partial report (Complete() ==
//     false), a fault ledger naming the abandoned shards, and never a
//     hang, because every network call is time-bounded.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Options configures a sharded campaign run.
type Options struct {
	// Config is the global campaign — exactly what a single process
	// would run. The report merges to that run's bytes.
	Config cli.Config
	// Shards is the number of seed-space partitions; 0 means one per
	// worker. Clamped to the program count.
	Shards int
	// Workers are the attached worker endpoints. At least one.
	Workers []*Client
	// HeartbeatEvery is the lease poll cadence; 0 means 100ms.
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many consecutive failed polls declare a
	// worker dead; 0 means 3.
	HeartbeatMisses int
	// CallTimeout bounds each coordinator→worker HTTP call; 0 means 3s.
	CallTimeout time.Duration
	// MaxAttempts bounds granted lease attempts per shard (the first
	// run and every reassignment count). Refusals — a lease the worker
	// never accepted, so no work was lost — draw from a separate budget
	// of MaxAttempts × len(Workers), so one dead idle worker cannot
	// absorb a shard's whole retry budget. 0 means 5.
	MaxAttempts int
	// RetryBackoff is the base delay before a shard's next attempt
	// after a failure, doubling per attempt, capped at 2s; 0 means 50ms.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's breaker (quarantining it for 2× the threshold in skipped
	// dispatch considerations, harness semantics); 0 means 3.
	BreakerThreshold int
	// StateDir, when set, receives the coordinator's fault-ledger
	// document (fabric.json) at the end of the run.
	StateDir string
	// Metrics and Trace observe the coordinator: shard/lease gauges,
	// fault counters, "fabric" trace events, and the
	// journal_corrupt_records counter for corrupt shipped journals.
	Metrics *metrics.Registry
	Trace   *metrics.Trace
}

// Result is a sharded campaign's outcome: the merged report plus the
// fabric's own fault ledger. Report.Faults stays the harness ledger —
// deterministic, byte-comparable — while Result.Faults audits the
// distribution layer (deaths, refusals, reassignments), which by
// construction never leaks into the report.
type Result struct {
	Report *campaign.Report
	Faults *Ledger
}

// shard is one contiguous partition of the global unit space.
type shard struct {
	index, lo, hi int
	attempts      int  // lease attempts granted (refusals roll back)
	refused       int  // lease grants that never happened (worker unreachable/busy)
	running       bool // its one lease attempt is active
	done          bool
	failed        bool
	notBefore     time.Time // retry backoff gate
}

// workerRef is one worker plus its scheduling state.
type workerRef struct {
	client  *Client
	breaker *harness.Breaker
	busy    bool
}

type coordinator struct {
	opts   Options
	global campaign.Options
	merger *campaign.Merger
	ledger *Ledger

	// mergeMu serializes merger folds; mu guards scheduling state.
	mergeMu sync.Mutex
	mu      sync.Mutex
	shards  []*shard
	workers []*workerRef
	wake    chan struct{}

	corruptObs func(journal.Corruption)

	mShardsDone *metrics.Gauge
	mShardsLost *metrics.Gauge
	mActive     *metrics.Gauge
	mMerged     *metrics.Gauge
	cDeaths     *metrics.Counter
	cRefusals   *metrics.Counter
	cReassign   *metrics.Counter
	cCorrupt    *metrics.Counter
}

// Run executes the campaign sharded across opts.Workers and returns
// the merged report and fabric ledger. A fully covered run's report is
// byte-identical (through ReportDoc) to campaign.Run of the same
// Config; a degraded run's report is the partial fold with Err set.
// Run never hangs: every worker interaction is time-bounded and every
// shard's attempt budget is finite.
func Run(ctx context.Context, opts Options) (*Result, error) {
	c, err := newCoordinator(opts)
	if err != nil {
		return nil, err
	}
	return c.run(ctx)
}

func newCoordinator(opts Options) (*coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers")
	}
	if opts.Config.Programs <= 0 {
		return nil, fmt.Errorf("fabric: campaign has %d programs", opts.Config.Programs)
	}
	if opts.Shards <= 0 {
		opts.Shards = len(opts.Workers)
	}
	if opts.Shards > opts.Config.Programs {
		opts.Shards = opts.Config.Programs
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 100 * time.Millisecond
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 3 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}

	global, err := opts.Config.CampaignOptions()
	if err != nil {
		return nil, err
	}
	// The merged report is the single-process report: global options,
	// no state directory (durability lived on the workers).
	global.StateDir, global.Resume = "", false

	c := &coordinator{
		opts:   opts,
		global: global,
		merger: campaign.NewMerger(global),
		ledger: NewLedger(opts.Shards),
		wake:   make(chan struct{}, 1),

		corruptObs: campaign.CorruptionObserver(opts.Metrics, opts.Trace),

		mShardsDone: opts.Metrics.Gauge("fabric.shards_done"),
		mShardsLost: opts.Metrics.Gauge("fabric.shards_degraded"),
		mActive:     opts.Metrics.Gauge("fabric.active_leases"),
		mMerged:     opts.Metrics.Gauge("fabric.units_merged"),
		cDeaths:     opts.Metrics.Counter("fabric.worker_deaths"),
		cRefusals:   opts.Metrics.Counter("fabric.lease_refusals"),
		cReassign:   opts.Metrics.Counter("fabric.reassignments"),
		cCorrupt:    opts.Metrics.Counter("fabric.corrupt_shipped_records"),
	}
	opts.Metrics.Gauge("fabric.shards").Set(int64(opts.Shards))
	opts.Metrics.Gauge("fabric.workers").Set(int64(len(opts.Workers)))

	// Balanced contiguous partition: the first Programs%Shards shards
	// take one extra unit.
	base, rem := opts.Config.Programs/opts.Shards, opts.Config.Programs%opts.Shards
	lo := 0
	for i := 0; i < opts.Shards; i++ {
		n := base
		if i < rem {
			n++
		}
		c.shards = append(c.shards, &shard{index: i, lo: lo, hi: lo + n})
		lo += n
	}
	for _, w := range opts.Workers {
		c.workers = append(c.workers, &workerRef{
			client:  w,
			breaker: harness.NewBreaker(opts.BreakerThreshold, 2*opts.BreakerThreshold),
		})
	}
	return c, nil
}

func (c *coordinator) wakeup() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *coordinator) trace(format string, args ...any) {
	c.opts.Trace.Emit(metrics.Event{Kind: "fabric", Seq: -1, Stage: "coordinator",
		Detail: fmt.Sprintf(format, args...)})
}

// run drives the dispatch loop until every shard is merged or
// abandoned (or ctx dies), then seals the merge.
func (c *coordinator) run(ctx context.Context) (*Result, error) {
	ticker := time.NewTicker(c.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		c.dispatch(ctx)
		if c.settled() {
			break
		}
		select {
		case <-ctx.Done():
		case <-c.wake:
		case <-ticker.C:
		}
		if ctx.Err() != nil {
			c.abort()
			break
		}
	}
	return c.finish(ctx.Err())
}

// settled reports whether every shard is done or failed with no
// attempt still running.
func (c *coordinator) settled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		if sh.running || (!sh.done && !sh.failed) {
			return false
		}
	}
	return true
}

// abort marks every unfinished shard failed and waits for active
// attempts to observe the dying context (their calls are time-bounded,
// so this converges quickly).
func (c *coordinator) abort() {
	deadline := time.Now().Add(c.opts.CallTimeout + time.Second)
	for {
		c.mu.Lock()
		active := 0
		for _, sh := range c.shards {
			if sh.running {
				active++
			} else if !sh.done && !sh.failed {
				sh.failed = true
			}
		}
		c.mu.Unlock()
		if active == 0 || time.Now().After(deadline) {
			return
		}
		select {
		case <-c.wake:
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// dispatch matches runnable shards — fresh ones, and retries past their
// backoff — with available workers. A shard whose lease is still
// running is never leased again: a slow attempt is waited out, and a
// dead one is detected by its missed heartbeats.
func (c *coordinator) dispatch(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	// Degradation first: a shard with no budget left and nothing in
	// flight is abandoned.
	for _, sh := range c.shards {
		if !sh.done && !sh.failed && !sh.running && c.exhaustedLocked(sh) {
			sh.failed = true
			c.ledger.Degraded(sh.index)
			c.mShardsLost.Add(1)
			c.trace("shard %d abandoned (%d attempts, %d refusals)", sh.index, sh.attempts, sh.refused)
		}
	}

	for _, sh := range c.shards {
		if sh.done || sh.failed || sh.running || c.exhaustedLocked(sh) || now.Before(sh.notBefore) {
			continue
		}
		w := c.takeWorkerLocked()
		if w == nil {
			return // no capacity; later wake/tick retries
		}
		c.launchLocked(ctx, w, sh)
	}
}

// exhaustedLocked reports whether a shard's retry budget is spent:
// MaxAttempts granted leases, or MaxAttempts × workers refusals. The
// split matters when one worker is dead but idle — it gets picked,
// refuses the lease (nothing was ever executed), and would otherwise
// burn the whole shard budget without a single unit running. Both
// budgets are finite, so the run still terminates. c.mu held.
func (c *coordinator) exhaustedLocked(sh *shard) bool {
	return sh.attempts >= c.opts.MaxAttempts ||
		sh.refused >= c.opts.MaxAttempts*len(c.workers)
}

// takeWorkerLocked claims an idle worker whose breaker admits a lease.
// A skipped open breaker counts toward its cooldown, so a quarantined
// worker earns a half-open probe lease after sitting out (harness
// semantics at worker granularity).
func (c *coordinator) takeWorkerLocked() *workerRef {
	for _, w := range c.workers {
		if w.busy {
			continue
		}
		if !w.breaker.Allow() {
			continue
		}
		w.busy = true
		return w
	}
	return nil
}

// launchLocked starts one lease attempt; c.mu held.
func (c *coordinator) launchLocked(ctx context.Context, w *workerRef, sh *shard) {
	attempt := sh.attempts
	sh.attempts++
	sh.running = true
	c.mActive.Add(1)
	reassigned := attempt > 0
	c.ledger.Leased(w.client.Name(), reassigned)
	if reassigned {
		c.cReassign.Inc()
	}
	go c.runAttempt(ctx, w, sh, attempt)
}

// attemptOutcome classifies one lease attempt.
type attemptOutcome int

const (
	outcomeCovered    attemptOutcome = iota // shard fully merged
	outcomeRefused                          // lease grant failed
	outcomeDied                             // missed heartbeats or failed shipment
	outcomeIncomplete                       // shipped, but units missing after merge
	outcomeAborted                          // coordinator context died
)

// runAttempt drives one lease end to end: grant, heartbeat, ship,
// merge, and bookkeeping.
func (c *coordinator) runAttempt(ctx context.Context, w *workerRef, sh *shard, attempt int) {
	defer c.wakeup()
	outcome := c.driveLease(ctx, w, sh, cli.ShardRange{Index: sh.index, Attempt: attempt, Lo: sh.lo, Hi: sh.hi})
	c.settleAttempt(w, sh, attempt, outcome)
}

// settleAttempt books one finished lease attempt: it frees the worker,
// updates the shard and the worker's breaker, and records the outcome.
func (c *coordinator) settleAttempt(w *workerRef, sh *shard, attempt int, outcome attemptOutcome) {
	c.mu.Lock()
	w.busy = false
	sh.running = false
	c.mActive.Add(-1)
	name := w.client.Name()
	switch outcome {
	case outcomeCovered:
		sh.done = true
		w.breaker.Record(true)
		c.mu.Unlock()
		c.ledger.Completed(name)
		c.mShardsDone.Add(1)
		c.mergeMu.Lock()
		c.mMerged.Set(int64(c.merger.Units()))
		c.mergeMu.Unlock()
		c.trace("shard %d merged (attempt %d on %s)", sh.index, attempt, name)
	case outcomeRefused:
		// The grant never happened, so the attempt number is handed
		// back: the next granted lease reuses it, keeping executed
		// attempts densely numbered (chaos draws key on the attempt).
		sh.attempts--
		sh.refused++
		refusal := sh.refused
		sh.notBefore = time.Now().Add(c.backoffLocked(sh))
		w.breaker.Record(false)
		c.mu.Unlock()
		c.ledger.Refused(name)
		c.cRefusals.Inc()
		c.trace("shard %d lease refused by %s (attempt %d, refusal %d)", sh.index, name, attempt, refusal)
	case outcomeDied:
		// A death verdict (HeartbeatMisses failed polls in a row, or a
		// shipment the worker could not deliver) is conclusive, so the
		// worker is quarantined at once rather than offered more leases
		// that a stopped process can only refuse after a full
		// CallTimeout each; it returns through the half-open probe.
		sh.notBefore = time.Now().Add(c.backoffLocked(sh))
		w.breaker.Trip()
		c.mu.Unlock()
		c.ledger.Died(name)
		c.cDeaths.Inc()
		c.trace("worker %s dead on shard %d (attempt %d); reassigning", name, sh.index, attempt)
	case outcomeIncomplete:
		sh.notBefore = time.Now().Add(c.backoffLocked(sh))
		w.breaker.Record(false)
		c.mu.Unlock()
		c.ledger.Failed(name)
		c.trace("shard %d shipment from %s incomplete (attempt %d); re-running", sh.index, name, attempt)
	default: // outcomeAborted
		c.mu.Unlock()
	}
}

// backoffLocked computes the shard's next-attempt delay: base ×
// 2^(failures-1), capped at 2s, counting granted attempts and
// refusals alike (both are failures worth spacing out). c.mu held.
func (c *coordinator) backoffLocked(sh *shard) time.Duration {
	n := sh.attempts + sh.refused
	if n < 1 {
		n = 1
	}
	d := c.opts.RetryBackoff << uint(minInt(n-1, 5))
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// driveLease grants one lease and follows it to an outcome. Every
// network call is bounded by CallTimeout; the poll loop is bounded by
// heartbeat misses or a terminal lease state.
func (c *coordinator) driveLease(ctx context.Context, w *workerRef, sh *shard, lease cli.ShardRange) attemptOutcome {
	call := func(fn func(context.Context) error) error {
		cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
		return fn(cctx)
	}
	// abandonLease fires a detached best-effort cancel. It matters most
	// when a presumed-dead worker is actually alive (a heartbeat lapse,
	// not a crash): without it the zombie lease keeps the worker busy —
	// refusing every reassignment — for the rest of the shard. With no
	// ID (the grant's reply never arrived) it cancels by shard attempt.
	var id string
	abandonLease := func() {
		go func() {
			cctx, cancel := context.WithTimeout(context.Background(), c.opts.CallTimeout)
			defer cancel()
			if id == "" {
				w.client.CancelShard(cctx, lease) //nolint:errcheck // best-effort
				return
			}
			w.client.Cancel(cctx, id) //nolint:errcheck // best-effort
		}()
	}

	cfg := c.opts.Config
	cfg.Shard = &lease
	if err := call(func(cctx context.Context) error {
		var lerr error
		id, lerr = w.client.Lease(cctx, cfg)
		return lerr
	}); err != nil {
		if ctx.Err() != nil {
			return outcomeAborted
		}
		// The POST may have been granted even though the reply never
		// arrived (slow worker, dropped response); don't leave the
		// orphan holding the worker.
		abandonLease()
		return outcomeRefused
	}

	misses := 0
	for {
		select {
		case <-ctx.Done():
			return outcomeAborted
		case <-time.After(c.opts.HeartbeatEvery):
		}
		var state string
		err := call(func(cctx context.Context) error {
			var serr error
			state, serr = w.client.Status(cctx, id)
			return serr
		})
		if err != nil {
			if ctx.Err() != nil {
				return outcomeAborted
			}
			misses++
			if misses >= c.opts.HeartbeatMisses {
				abandonLease()
				return outcomeDied
			}
			continue
		}
		misses = 0
		if state != "running" {
			break
		}
	}

	// Terminal lease: ship the journal and merge it. Failed and
	// cancelled runs still ship — their journals hold every unit they
	// finished, and salvaging them shrinks the re-run.
	var image []byte
	err := call(func(cctx context.Context) error {
		var jerr error
		image, jerr = w.client.Journal(cctx, id)
		return jerr
	})
	if err != nil {
		if ctx.Err() != nil {
			return outcomeAborted
		}
		abandonLease()
		return outcomeDied
	}
	c.mergeShard(sh, image)

	c.mergeMu.Lock()
	missing := c.merger.Missing(sh.lo, sh.hi)
	c.mergeMu.Unlock()
	if len(missing) == 0 {
		return outcomeCovered
	}
	c.trace("shard %d: %d units missing after merge", sh.index, len(missing))
	return outcomeIncomplete
}

// mergeShard folds one shipped journal image. Frame-level corruption
// (CRC mismatches, torn tails) and content-level corruption (records
// that cannot belong to this campaign) are both quarantined and
// audited; the units they covered simply stay missing and re-run.
func (c *coordinator) mergeShard(sh *shard, image []byte) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	corruptions, _ := journal.ReplayBytes(image, func(off int64, payload []byte) error {
		if _, err := c.merger.FoldRecord(payload, sh.lo); err != nil {
			c.noteCorrupt(journal.Corruption{Offset: off, Reason: err.Error()})
		}
		return nil
	})
	for _, corr := range corruptions {
		c.noteCorrupt(corr)
	}
	c.mMerged.Set(int64(c.merger.Units()))
}

// noteCorrupt audits one quarantined shipped record. mergeMu held.
func (c *coordinator) noteCorrupt(corr journal.Corruption) {
	c.ledger.Corrupt(1)
	c.cCorrupt.Inc()
	if c.corruptObs != nil {
		c.corruptObs(corr)
	}
}

// finish seals the merge: quarantined workers are recorded, the ledger
// document is persisted when a StateDir was given, and the report gets
// its terminal error (nil only for full coverage).
func (c *coordinator) finish(ctxErr error) (*Result, error) {
	c.mu.Lock()
	var degraded []int
	for _, sh := range c.shards {
		if !sh.done {
			degraded = append(degraded, sh.index)
		}
	}
	for _, w := range c.workers {
		if w.breaker.State() != harness.BreakerClosed {
			c.ledger.Quarantine(w.client.Name())
		}
	}
	c.mu.Unlock()

	var err error
	switch {
	case ctxErr != nil:
		err = ctxErr
	case len(degraded) > 0:
		err = fmt.Errorf("fabric: degraded: %d of %d shards abandoned (%v)", len(degraded), len(c.shards), degraded)
	}

	c.mergeMu.Lock()
	report := c.merger.Finish(err)
	c.mergeMu.Unlock()

	ledger := c.ledger.Clone()
	if c.opts.StateDir != "" {
		if store, serr := journal.Open(c.opts.StateDir); serr == nil {
			if payload, merr := json.Marshal(ledger); merr == nil {
				store.WriteDoc("fabric.json", payload) //nolint:errcheck // audit doc is best-effort
			}
		}
	}
	c.trace("merge sealed: %d/%d units, %d/%d shards", c.merger.Units(), c.opts.Config.Programs,
		ledger.ShardsDone, ledger.Shards)
	return &Result{Report: report, Faults: ledger}, err
}
