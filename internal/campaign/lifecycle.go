// The campaign lifecycle: a Campaign is a long-lived object with a
// real state machine — new|paused → running → done|cancelled|failed,
// with Pause taking running back to paused — rather than a
// run-to-completion function call. Pause rides the durable journal:
// pausing cancels the running pipeline segment and lets the durable
// layer sync and close the journal, so a paused campaign is exactly a
// crash-suspended one. New over a state directory whose journal holds
// the campaign returns it paused too, and Start continues either by
// replaying the journal through the same restore path a crash recovery
// uses.
// The determinism contract is therefore inherited, not re-proven: a
// campaign paused and resumed any number of times folds to the
// bit-for-bit report of an uninterrupted run.
//
// Status() is the race-safe live view: any goroutine may poll it while
// the pipeline folds units. The fold takes a write lock per unit (two
// short critical sections around work that includes whole-program
// compiles, so the cost disappears in the noise); Status takes a read
// lock and deep-copies what it returns.

package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/compilers"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/pipeline"
)

// State is a campaign's lifecycle position.
type State int32

const (
	// StateNew: constructed, not yet started.
	StateNew State = iota
	// StateRunning: a pipeline segment is executing, or draining
	// because Pause asked it to.
	StateRunning
	// StatePaused: durably suspended, by Pause or because New found the
	// campaign's journal in its state directory. The next Start replays
	// the journal and continues; Cancel ends it.
	StatePaused
	// StateDone: completed; the report is final and Complete().
	StateDone
	// StateCancelled: ended early by Cancel or context cancellation; the
	// report is a partial fold with Complete() == false.
	StateCancelled
	// StateFailed: ended by a non-cancellation error (corrupt state
	// directory, stage failure).
	StateFailed
)

// String renders the state for logs and the HTTP API.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateDone:
		return "done"
	case StateCancelled:
		return "cancelled"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Terminal reports whether the state is final: no segment will run
// again and Wait has unblocked.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// MarshalJSON renders the state name, so API payloads say "paused"
// rather than 3.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ErrNotPausable is returned by Pause for campaigns without a state
// directory: suspension is durable by construction, so there is
// nothing to pause into.
var ErrNotPausable = errors.New("campaign: pause requires a durable campaign (Options.StateDir)")

// Campaign is a lifecycle-managed campaign. Construct with New, drive
// with Start, Pause, Cancel, and Wait, and observe with Status from any
// goroutine. The zero value is not usable.
type Campaign struct {
	opts Options

	// mu guards the state machine; fold guards the report contents
	// while a segment is writing them. Lock order: mu is never held
	// while acquiring fold's write side, and Status releases mu before
	// taking fold's read side, so the two never nest writer-inside-
	// writer across goroutines.
	mu        sync.Mutex
	state     State
	baseCtx   context.Context
	cancelSeg context.CancelFunc
	segDone   chan struct{}
	pauseReq  bool
	cancelReq bool
	report    *Report
	h         *harness.Harness
	err       error
	done      chan struct{}

	fold sync.RWMutex
}

// New returns a campaign for the options: paused when Options.Resume
// finds this campaign's journal in the state directory, new otherwise.
// The options are normalized once here (nil Compilers means all three,
// the generator config is clamped), so every segment and the durable
// fingerprint agree on what the campaign is.
func New(opts Options) *Campaign {
	if opts.Compilers == nil {
		opts.Compilers = compilers.All()
	}
	// The generator clamps limits to workable minimums at construction;
	// normalize here so the fingerprint and journal record the effective
	// config rather than the caller's pre-clamp values (which would let
	// two configs that run identically fingerprint differently, and a
	// resume validate against state a different effective config wrote).
	opts.GenConfig = opts.GenConfig.Normalized()
	c := &Campaign{opts: opts, done: make(chan struct{})}
	if opts.StateDir != "" && opts.Resume {
		// A campaign built to resume inspects as its journal left it
		// before it starts: replay the journal the way its first segment
		// will, unobserved, since that segment replays it again.
		report, h := newReport(opts), harness.New(opts.Harness)
		agg := &reportAggregator{report: report, bugIndex: bugIndexFor(opts.Compilers)}
		unobserved := opts
		unobserved.Metrics, unobserved.Trace = nil, nil
		if peekState(unobserved, report, agg, h) {
			c.report, c.h = report, h
			c.state = StatePaused
		}
	}
	return c
}

// Start runs a new or paused campaign. A paused one first replays its
// journal and skips the units it restores. ctx bounds the run until it
// ends or pauses: cancelling it cancels the campaign. A nil ctx means
// context.Background.
func (c *Campaign) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateNew && c.state != StatePaused {
		return fmt.Errorf("campaign: Start from state %s", c.state)
	}
	c.baseCtx = ctx
	segCtx, cancel := context.WithCancel(ctx)
	seg := make(chan struct{})
	c.cancelSeg = cancel
	c.segDone = seg
	c.pauseReq = false
	c.state = StateRunning
	go func() {
		err := c.run(segCtx)
		cancel()
		c.settle(err, seg)
	}()
	return nil
}

// settle records how a segment ended and advances the state machine.
func (c *Campaign) settle(err error, seg chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(seg)
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case err == nil:
		c.state = StateDone
		close(c.done)
	case cancelled && c.pauseReq && !c.cancelReq && c.baseCtx.Err() == nil:
		// The segment drained because Pause asked it to (not because the
		// lifecycle context died underneath it): the durable layer has
		// synced the journal, the campaign is suspended, and the next
		// Start resumes the state directory this segment claimed.
		c.state = StatePaused
		c.opts.Resume = true
	case cancelled:
		c.state = StateCancelled
		c.err = err
		close(c.done)
	default:
		c.state = StateFailed
		c.err = err
		close(c.done)
	}
}

// Pause durably suspends a running campaign: the pipeline segment is
// cancelled, in-flight units are abandoned (their results are simply
// recomputed when Start resumes it), and the journal is synced and
// closed. The campaign stays running until the suspension is complete,
// and Pause blocks until then. Only durable campaigns (Options.StateDir)
// can pause; a campaign that finishes while Pause is in flight stays
// finished.
func (c *Campaign) Pause() error {
	c.mu.Lock()
	if c.opts.StateDir == "" {
		c.mu.Unlock()
		return ErrNotPausable
	}
	if c.state != StateRunning {
		state := c.state
		c.mu.Unlock()
		return fmt.Errorf("campaign: Pause from state %s", state)
	}
	c.pauseReq = true
	cancel, seg := c.cancelSeg, c.segDone
	c.mu.Unlock()
	cancel()
	<-seg
	return nil
}

// Cancel ends the campaign early. The report is the partial fold of
// whatever units finished (Complete() == false); a durable campaign
// has also just synced its journal, so the directory can still be
// resumed by a future campaign with Options.Resume. Cancel blocks
// until the run has stopped; cancelling a finished campaign is a
// no-op.
func (c *Campaign) Cancel() error {
	c.mu.Lock()
	switch c.state {
	case StateNew, StatePaused:
		c.cancelReq = true
		c.state = StateCancelled
		c.err = context.Canceled
		r := c.report
		close(c.done)
		c.mu.Unlock()
		if r != nil {
			c.fold.Lock()
			if r.Err == nil {
				r.Err = context.Canceled
			}
			c.fold.Unlock()
		}
		return nil
	case StateRunning:
		c.cancelReq = true
		cancel, seg := c.cancelSeg, c.segDone
		c.mu.Unlock()
		cancel()
		<-seg
		return nil
	default:
		c.mu.Unlock()
		return nil
	}
}

// Wait blocks until the campaign reaches a terminal state — through
// any number of pause and Start cycles — and returns the final report and
// error, with the same contract RunContext had: a nil error means the
// report is complete and deterministic for the options.
func (c *Campaign) Wait() (*Report, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report, c.err
}

// Done returns a channel closed when the campaign reaches a terminal
// state. Pausing does not close it.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// State returns the current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Report returns the campaign's report once no segment is writing it —
// paused or terminal — and nil while the campaign is running (use
// Status for a race-safe live view). A paused campaign's report is the
// partial fold at the pause point.
func (c *Campaign) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateRunning {
		return nil
	}
	return c.report
}

// publish installs a segment's report and harness for Status readers;
// called by run once restore has finished and before the pipeline
// starts folding.
func (c *Campaign) publish(r *Report, h *harness.Harness) {
	c.mu.Lock()
	c.report, c.h = r, h
	c.mu.Unlock()
}

// Status is a point-in-time, race-safe view of a campaign: the
// lifecycle state plus the deterministic progress figures (units,
// executions, distinct bugs, the bug-rate series, the fault ledger)
// and the operational one (breaker positions). Every
// field is a copy — callers can hold a Status forever without pinning
// the fold.
type Status struct {
	// State is the lifecycle position; Err is the terminal error, if
	// any.
	State State `json:"state"`
	Err   error `json:"-"`
	// Durable reports whether the campaign has a state directory (and
	// can therefore pause).
	Durable bool `json:"durable"`
	// Programs is the planned unit count; Units is how many have folded
	// (including units restored by a resume), Execs how many (input,
	// compiler) executions they contained, Bugs how many distinct bugs
	// the fold has seen.
	Programs int `json:"programs"`
	Units    int `json:"units"`
	Execs    int `json:"execs"`
	Bugs     int `json:"bugs"`
	// Disagreements is the number of distinct differential-oracle
	// findings the fold has seen; 0 under the ground-truth oracle.
	Disagreements int `json:"disagreements,omitempty"`
	// Kinds counts pipeline executions per input kind (keyed by
	// oracle.InputKind.String()), so mixed-mode campaigns (generated +
	// stress + synthesized) can be watched converging per kind.
	Kinds map[string]int `json:"kinds,omitempty"`
	// BugRate is the derived bug-rate-over-time series so far.
	BugRate []SeriesPoint `json:"bug_rate,omitempty"`
	// Faults is a deep copy of the fault ledger.
	Faults *harness.Ledger `json:"faults,omitempty"`
	// Breakers maps compiler name to its circuit-breaker snapshot.
	Breakers map[string]harness.BreakerSnapshot `json:"breakers,omitempty"`
	// Recovery describes what the most recent segment restored.
	Recovery RecoveryInfo `json:"recovery"`
}

// Status returns the campaign's current status snapshot. Safe to call
// from any goroutine at any lifecycle point, including concurrently
// with the fold.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	s := Status{
		State:    c.state,
		Err:      c.err,
		Durable:  c.opts.StateDir != "",
		Programs: c.opts.Programs,
	}
	report, h := c.report, c.h
	c.mu.Unlock()
	if h != nil {
		s.Breakers = h.ExportBreakers()
	}
	if report == nil {
		return s
	}
	c.fold.RLock()
	defer c.fold.RUnlock()
	if s.Err == nil {
		s.Err = report.Err
	}
	for _, b := range report.BugRate {
		s.Units += b.Units
		s.Execs += b.Execs
	}
	s.Bugs = len(report.Found)
	s.Disagreements = len(report.Disagreements)
	if len(report.ProgramsRun) > 0 {
		s.Kinds = make(map[string]int, len(report.ProgramsRun))
		for kind, n := range report.ProgramsRun {
			s.Kinds[kind.String()] = n
		}
	}
	s.BugRate = report.BugRateSeries()
	s.Faults = report.Faults.Clone()
	s.Recovery = report.Recovery
	s.Recovery.Quarantined = append([]journal.Corruption(nil), report.Recovery.Quarantined...)
	return s
}

// gatedSource applies a per-unit admission gate on the source
// goroutine. A blocking gate stalls the feed channel, and the stall
// propagates backward through every bounded stage channel, so a
// throttling gate backpressures the campaign instead of buffering
// unbounded work. Recovered units pass free: replaying already-folded
// results costs no budget.
type gatedSource struct {
	inner pipeline.Source
	ctx   context.Context
	gate  func(context.Context) error
}

// Name implements pipeline.Source.
func (g *gatedSource) Name() string { return g.inner.Name() }

// Next implements pipeline.Source.
func (g *gatedSource) Next() (*pipeline.Unit, bool) {
	u, ok := g.inner.Next()
	if !ok || u.Recovered {
		return u, ok
	}
	if err := g.gate(g.ctx); err != nil {
		return nil, false
	}
	return u, ok
}
