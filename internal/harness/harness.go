// Package harness is the resilient execution layer between the
// pipeline's Execute stage and the compilers under test. A nine-month
// campaign survives only if misbehaving compilers — crashes, hangs,
// flaky verdicts — are treated as signal rather than fatal errors
// (Section 3.6), so every compile runs:
//
//   - sandboxed: a panic in the compiler or checker is recovered and
//     converted into a Crashed result carrying the captured stack;
//   - under a watchdog: a per-compile deadline turns a hang into a
//     TimedOut result, distinct from a crash;
//   - with retries: transient harness faults are retried with
//     seeded-jitter exponential backoff;
//   - behind a per-compiler circuit breaker: after N consecutive
//     harness-level failures a compiler is quarantined and later probed
//     half-open, so a wedged toolchain degrades the campaign instead of
//     stalling it;
//   - optionally twice: a double-compile detector flags nondeterministic
//     (flaky) verdicts.
//
// The chaos wrapper (chaos.go) injects these very faults at seeded,
// deterministic rates — the test rig proving the harness absorbs them.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// Target is the harness's view of a compiler: a named thing that
// compiles one program, observing the context, and may fail at the
// harness level (as a subprocess-spawn failure would in a real
// campaign) by returning an error.
type Target interface {
	Name() string
	Compile(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*compilers.Result, error)
}

// compilerTarget adapts a simulated compiler to Target.
type compilerTarget struct{ c *compilers.Compiler }

func (t compilerTarget) Name() string { return t.c.Name() }

func (t compilerTarget) Compile(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*compilers.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// CompileContext picks up the resource budget the harness attached to
	// ctx; its governor polls ctx at fuel checkpoints, so a watchdog
	// cancellation turns into a cooperative exit instead of an abandoned
	// CPU-bound goroutine.
	return t.c.CompileContext(ctx, p, cov)
}

// WrapCompiler adapts a simulated compiler to the Target interface.
func WrapCompiler(c *compilers.Compiler) Target { return compilerTarget{c} }

// transientError marks a harness-level fault worth retrying.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// Transient wraps an error to mark it retryable (a flaky filesystem, a
// failed process spawn). The harness retries transient faults with
// backoff; any other error ends the invocation immediately.
func Transient(err error) error { return transientError{err} }

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// Key identifies one harness invocation. Fault injection and backoff
// jitter are keyed on it, never on global call order, so chaos
// decisions and retry schedules are deterministic for a fixed seed
// regardless of worker count or channel timing.
type Key struct {
	// Unit is the owning pipeline unit's seed.
	Unit int64
	// Input is the input's index within the unit (base program, mutants).
	Input int
	// Attempt counts retries of the same compile, from 0.
	Attempt int
	// Replica is 0 for the primary compile and 1 for the double-compile
	// nondeterminism probe.
	Replica int
	// watchdog marks an invocation run under the harness watchdog. It
	// is not part of the invocation's identity: hash ignores it.
	watchdog bool
}

func (k Key) hash() int64 {
	h := uint64(k.Unit)*0x9e3779b97f4a7c15 + uint64(k.Input)*0xbf58476d1ce4e5b9 +
		uint64(k.Attempt)*0x94d049bb133111eb + uint64(k.Replica)*0xd6e8feb86659fd93
	return int64(mix64(h))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed mixer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashString folds a name into the key stream so each compiler draws
// from its own dice.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

type keyCtx struct{}

// WithKey attaches the invocation key to the context; the chaos wrapper
// reads it back to make seeded fault decisions.
func WithKey(ctx context.Context, k Key) context.Context {
	return context.WithValue(ctx, keyCtx{}, k)
}

// KeyFrom extracts the invocation key the harness attached.
func KeyFrom(ctx context.Context) (Key, bool) {
	k, ok := ctx.Value(keyCtx{}).(Key)
	return k, ok
}

// Outcome classifies what the harness observed for one invocation.
type Outcome int

const (
	// Completed: the compiler returned a result (which may itself report
	// a compiler bug — that is the campaign's signal, not a harness
	// failure).
	Completed Outcome = iota
	// Crashed: the compiler (or checker) panicked; the sandbox captured
	// the stack and synthesized a crashed Result.
	Crashed
	// TimedOut: the watchdog deadline expired; a TimedOut Result was
	// synthesized (a hang is a reportable bug, distinct from a crash).
	TimedOut
	// Errored: a harness-level error persisted after every retry (or was
	// not transient); no result is available.
	Errored
	// Quarantined: the compiler's circuit breaker was open, so the
	// compile was skipped and the gap recorded.
	Quarantined
	// Aborted: the campaign's own context was cancelled mid-compile.
	Aborted
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Crashed:
		return "crashed"
	case TimedOut:
		return "timed-out"
	case Errored:
		return "errored"
	case Quarantined:
		return "quarantined"
	default:
		return "aborted"
	}
}

// Invocation is the harness's record of one compile: the result (nil
// for Errored/Quarantined/Aborted), how it ended, and what resilience
// machinery fired along the way.
type Invocation struct {
	Outcome Outcome
	// Result is non-nil for Completed, Crashed, and TimedOut outcomes;
	// crash and timeout results are synthesized so the oracle can judge
	// them like any other compilation.
	Result *compilers.Result
	// Attempts is the number of compile attempts performed (1 + retries).
	Attempts int
	// Flaky reports that the double-compile probe saw a different status
	// than the primary compile — a nondeterministic verdict.
	Flaky bool
	// Err holds the final harness-level error message, if any.
	Err string
	// Stack is the captured stack trace when Outcome is Crashed.
	Stack string
	// FuelSpent is the governor's step count for the final attempt.
	// Observability only: it is exported to metrics but never serialized
	// into journals or reports. Zero when the invocation never reached
	// the compiler (quarantined/aborted), when the watchdog synthesized
	// the result, or when the compile read its input's shared check
	// (compilers.WithSharedCheck) instead of running the checker.
	FuelSpent int64

	// transient marks an Errored ending as retryable.
	transient bool
}

// Options configures a Harness. The zero value is the minimal safe
// harness: sandboxed invocation with no watchdog, retries, breaker, or
// double-compile probe.
type Options struct {
	// Timeout is the per-compile watchdog budget; 0 disables the
	// watchdog.
	Timeout time.Duration
	// Retries is the maximum number of retry attempts for transient
	// faults.
	Retries int
	// BackoffBase is the base delay of the exponential backoff schedule
	// (attempt i waits BackoffBase<<i plus seeded jitter of up to the
	// same amount). 0 means 10ms.
	BackoffBase time.Duration
	// Seed drives the backoff jitter deterministically per invocation.
	Seed int64
	// DoubleCompile enables the nondeterminism detector: every completed
	// compile runs a second time and verdict flips are flagged Flaky.
	DoubleCompile bool
	// BreakerThreshold is the number of consecutive harness-level
	// failures (crash, timeout, errored) that opens a compiler's circuit
	// breaker; 0 disables breakers.
	BreakerThreshold int
	// BreakerCooldown is the number of quarantined compiles an open
	// breaker skips before probing half-open. 0 means 2×threshold.
	BreakerCooldown int
	// Fuel is the per-compile deterministic step budget enforced by the
	// resource governor (internal/governor); 0 disables the fuel limit.
	// Unlike Timeout, exhaustion is a pure function of the program: the
	// same program bails at the same step on every machine, yielding a
	// journaled ResourceExhausted result instead of a wall-clock hang.
	// Fuel is verdict-affecting and therefore part of the campaign
	// fingerprint.
	Fuel int64
	// MaxDepth caps the governor's recursion depth for type-relation and
	// substitution walks. 0 with Fuel > 0 applies governor.DefaultMaxDepth;
	// 0 with Fuel == 0 disables the guard.
	MaxDepth int
	// Metrics, when set, exports per-compiler wall-time histograms
	// (harness.compile_wall_ns.<compiler>) and breaker-state gauges
	// (harness.breaker.<compiler>). Observation only — the compile path
	// is identical with or without it.
	Metrics *metrics.Registry
	// Trace, when set, receives retry, fault, flaky, and breaker
	// transition events. Observation only.
	Trace *metrics.Trace
}

// Harness executes compiles resiliently. Safe for concurrent use.
type Harness struct {
	opts Options

	mu       sync.Mutex
	breakers map[string]*Breaker
	wall     map[string]*metrics.Histogram
	fuel     map[string]*metrics.Histogram
}

// New returns a harness with the given options.
func New(opts Options) *Harness {
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 10 * time.Millisecond
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * opts.BreakerThreshold
	}
	return &Harness{
		opts:     opts,
		breakers: map[string]*Breaker{},
		wall:     map[string]*metrics.Histogram{},
		fuel:     map[string]*metrics.Histogram{},
	}
}

// Breaker returns the circuit breaker guarding the named compiler,
// creating it on first use.
func (h *Harness) Breaker(name string) *Breaker {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.breakers[name]
	if b == nil {
		b = NewBreaker(h.opts.BreakerThreshold, h.opts.BreakerCooldown)
		h.breakers[name] = b
		if h.opts.Metrics != nil || h.opts.Trace != nil {
			gauge := h.opts.Metrics.Gauge("harness.breaker." + name)
			gauge.Set(int64(b.State()))
			trace := h.opts.Trace
			b.OnTransition(func(from, to BreakerState) {
				gauge.Set(int64(to))
				trace.Emit(metrics.Event{
					Kind:     "breaker",
					Compiler: name,
					Detail:   from.String() + "->" + to.String(),
				})
			})
		}
	}
	return b
}

// wallHistogram returns the per-compiler compile wall-time histogram,
// creating it on first use.
func (h *Harness) wallHistogram(name string) *metrics.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := h.wall[name]
	if hist == nil {
		hist = h.opts.Metrics.Histogram("harness.compile_wall_ns." + name)
		h.wall[name] = hist
	}
	return hist
}

// fuelHistogram returns the per-compiler governor step-count histogram,
// creating it on first use.
func (h *Harness) fuelHistogram(name string) *metrics.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := h.fuel[name]
	if hist == nil {
		hist = h.opts.Metrics.Histogram("harness.fuel_spent." + name)
		h.fuel[name] = hist
	}
	return hist
}

// ExportBreakers snapshots every circuit breaker, keyed by compiler
// name, for status displays.
func (h *Harness) ExportBreakers() map[string]BreakerSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]BreakerSnapshot, len(h.breakers))
	for name, b := range h.breakers {
		out[name] = b.Export()
	}
	return out
}

// Compile runs one compile through the full resilience stack: breaker
// admission, sandboxed invocation under the watchdog, transient-fault
// retries with seeded-jitter backoff, and the optional double-compile
// nondeterminism probe.
func (h *Harness) Compile(ctx context.Context, t Target, p *ir.Program, cov coverage.Recorder, key Key) Invocation {
	br := h.Breaker(t.Name())
	if !br.Allow() {
		h.opts.Trace.Emit(metrics.Event{
			Kind: "fault", Unit: key.Unit, Compiler: t.Name(), Detail: Quarantined.String(),
		})
		return Invocation{Outcome: Quarantined, Err: "circuit breaker open"}
	}

	t0 := time.Now()
	inv := h.compileWithRetry(ctx, t, p, cov, key)
	h.wallHistogram(t.Name()).ObserveDuration(time.Since(t0))
	if inv.Outcome == Aborted {
		// The campaign is shutting down; tell the breaker nothing.
		return inv
	}
	br.Record(inv.Outcome == Completed)
	if inv.Outcome != Completed {
		h.opts.Trace.Emit(metrics.Event{
			Kind: "fault", Unit: key.Unit, Compiler: t.Name(), Detail: inv.Outcome.String(),
		})
	}

	if h.opts.DoubleCompile && inv.Outcome == Completed {
		key.Replica = 1
		key.Attempt = 0
		// The probe gets no coverage recorder: it must not double-count
		// probe sites. It must also run the checker itself rather than
		// read the input's shared check, or it could never see a
		// nondeterministic checker.
		probe := h.invokeOnce(compilers.WithoutSharedCheck(ctx), t, p, nil, key)
		if probe.Outcome != Aborted &&
			(probe.Outcome != Completed || probe.Result.Status != inv.Result.Status) {
			inv.Flaky = true
			h.opts.Trace.Emit(metrics.Event{
				Kind: "flaky", Unit: key.Unit, Compiler: t.Name(), Detail: "double-compile status flip",
			})
		}
	}
	return inv
}

// compileWithRetry runs the attempt loop: transient errors are retried
// up to Retries times with exponential backoff and seeded jitter; any
// other ending is final.
func (h *Harness) compileWithRetry(ctx context.Context, t Target, p *ir.Program, cov coverage.Recorder, key Key) Invocation {
	var inv Invocation
	for attempt := 0; ; attempt++ {
		key.Attempt = attempt
		inv = h.invokeOnce(ctx, t, p, cov, key)
		inv.Attempts = attempt + 1
		if inv.Outcome != Errored || !inv.transient || attempt >= h.opts.Retries {
			return inv
		}
		h.opts.Trace.Emit(metrics.Event{
			Kind: "retry", Unit: key.Unit, Compiler: t.Name(),
			Detail: fmt.Sprintf("attempt %d: %s", attempt, inv.Err),
		})
		if !h.backoff(ctx, attempt, key) {
			inv.Outcome = Aborted
			inv.Err = ctx.Err().Error()
			return inv
		}
	}
}

// backoff sleeps for the attempt's backoff budget; it returns false if
// the context was cancelled first.
func (h *Harness) backoff(ctx context.Context, attempt int, key Key) bool {
	d := h.backoffDelay(attempt, key)
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// backoffDelay computes attempt i's delay: BackoffBase<<i plus jitter
// in [0, BackoffBase), drawn from a generator seeded by the invocation
// key — the schedule is reproducible, not synchronized across workers.
func (h *Harness) backoffDelay(attempt int, key Key) time.Duration {
	base := h.opts.BackoffBase << uint(attempt)
	rng := rand.New(rand.NewSource(int64(mix64(uint64(h.opts.Seed) ^ uint64(key.hash())))))
	return base + time.Duration(rng.Int63n(int64(h.opts.BackoffBase)))
}

// oneResult carries a sandboxed compile's ending out of its goroutine.
type oneResult struct {
	res   *compilers.Result
	err   error
	stack string
	panic string
}

// invokeOnce performs a single sandboxed compile under the watchdog and
// the resource governor.
func (h *Harness) invokeOnce(ctx context.Context, t Target, p *ir.Program, cov coverage.Recorder, key Key) Invocation {
	key.watchdog = h.opts.Timeout > 0
	cctx := WithKey(ctx, key)
	var cancel context.CancelFunc
	if h.opts.Timeout > 0 {
		cctx, cancel = context.WithTimeout(cctx, h.opts.Timeout)
		defer cancel()
	}

	// A fresh budget per attempt, even with Fuel == 0: an unguarded
	// budget never bails on steps but still polls cctx at checkpoints, so
	// a watchdog firing (or campaign shutdown) turns a CPU-bound check
	// into a cooperative exit instead of a leaked goroutine.
	gov := governor.New(h.opts.Fuel, h.opts.MaxDepth)
	gov.Bind(cctx)
	cctx = governor.WithBudget(cctx, gov)

	if h.opts.Timeout <= 0 {
		// No watchdog: sandbox inline, sparing the goroutine handoff on
		// the default hot path.
		out := sandboxedCompile(cctx, t, p, cov)
		return h.finish(ctx, t, out, gov, key)
	}

	ch := make(chan oneResult, 1)
	go func() { ch <- sandboxedCompile(cctx, t, p, cov) }()
	select {
	case out := <-ch:
		return h.finish(ctx, t, out, gov, key)
	case <-cctx.Done():
		// The compile goroutine is abandoned; a context-aware target
		// (including the chaos wrapper's hangs) unblocks promptly, and a
		// CPU-bound check hits a governor poll point, finishes into the
		// buffered channel, and is collected. gov must not be read here —
		// the goroutine may still be charging it.
		if ctx.Err() != nil {
			return Invocation{Outcome: Aborted, Err: ctx.Err().Error()}
		}
		return Invocation{
			Outcome: TimedOut,
			Result: &compilers.Result{
				Status:      compilers.TimedOut,
				Diagnostics: []string{fmt.Sprintf("compiler timed out after %v", h.opts.Timeout)},
			},
			Err: fmt.Sprintf("watchdog: compile exceeded %v", h.opts.Timeout),
		}
	}
}

// finish classifies a compile that actually returned (inline or through
// the watchdog channel — the happens-before needed to read the budget)
// and attaches governor observability.
func (h *Harness) finish(parent context.Context, t Target, out oneResult, gov *governor.Budget, key Key) Invocation {
	inv := h.classify(parent, out)
	inv.FuelSpent = gov.Spent()
	if inv.Result != nil && inv.Result.Status == compilers.ResourceExhausted {
		h.opts.Metrics.Counter("harness.fuel_exhausted." + t.Name()).Inc()
		detail := "budget exhausted"
		if len(inv.Result.Diagnostics) > 0 {
			detail = inv.Result.Diagnostics[0]
		}
		h.opts.Trace.Emit(metrics.Event{
			Kind: "fuel", Unit: key.Unit, Compiler: t.Name(), Detail: detail,
		})
	}
	// Only an invocation that ran the checker charges fuel; a compile
	// that read its input's shared check (or never reached the compiler)
	// would mix zeros into the fuel-per-check distribution.
	if h.opts.Metrics != nil && inv.FuelSpent > 0 {
		h.fuelHistogram(t.Name()).Observe(inv.FuelSpent)
	}
	return inv
}

// sandboxedCompile invokes the target under recover, converting a panic
// into a captured ending instead of killing the campaign.
func sandboxedCompile(ctx context.Context, t Target, p *ir.Program, cov coverage.Recorder) (out oneResult) {
	defer func() {
		if r := recover(); r != nil {
			out = oneResult{panic: fmt.Sprint(r), stack: string(debug.Stack())}
		}
	}()
	res, err := t.Compile(ctx, p, cov)
	return oneResult{res: res, err: err}
}

// classify turns a sandboxed ending into an Invocation. parent is the
// campaign's context, consulted to tell cancellation from faults.
func (h *Harness) classify(parent context.Context, out oneResult) Invocation {
	switch {
	case out.panic != "":
		return Invocation{
			Outcome: Crashed,
			Result: &compilers.Result{
				Status:      compilers.Crashed,
				Diagnostics: []string{"internal error: panic: " + out.panic},
			},
			Err:   "panic: " + out.panic,
			Stack: out.stack,
		}
	case out.err != nil:
		if parent.Err() != nil {
			return Invocation{Outcome: Aborted, Err: parent.Err().Error()}
		}
		if errors.Is(out.err, context.DeadlineExceeded) {
			return Invocation{
				Outcome: TimedOut,
				Result: &compilers.Result{
					Status:      compilers.TimedOut,
					Diagnostics: []string{fmt.Sprintf("compiler timed out after %v", h.opts.Timeout)},
				},
				Err: out.err.Error(),
			}
		}
		return Invocation{Outcome: Errored, Err: out.err.Error(), transient: IsTransient(out.err)}
	default:
		return Invocation{Outcome: Completed, Result: out.res}
	}
}
