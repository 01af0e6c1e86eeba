package harness

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// fakeTarget scripts a Target's behaviour per call.
type fakeTarget struct {
	name  string
	calls atomic.Int64
	fn    func(ctx context.Context, call int64) (*compilers.Result, error)
}

func (t *fakeTarget) Name() string {
	if t.name == "" {
		return "fake"
	}
	return t.name
}

func (t *fakeTarget) Compile(ctx context.Context, _ *ir.Program, _ coverage.Recorder) (*compilers.Result, error) {
	return t.fn(ctx, t.calls.Add(1))
}

func okResult() (*compilers.Result, error) {
	return &compilers.Result{Status: compilers.OK}, nil
}

func TestSandboxConvertsPanicToCrash(t *testing.T) {
	target := &fakeTarget{fn: func(context.Context, int64) (*compilers.Result, error) {
		panic("checker exploded")
	}}
	h := New(Options{})
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != Crashed {
		t.Fatalf("outcome = %s, want crashed", inv.Outcome)
	}
	if inv.Result == nil || inv.Result.Status != compilers.Crashed {
		t.Fatalf("crash result not synthesized: %+v", inv.Result)
	}
	if !strings.Contains(inv.Result.Diagnostics[0], "internal error") ||
		!strings.Contains(inv.Result.Diagnostics[0], "checker exploded") {
		t.Errorf("diagnostics should carry the panic: %v", inv.Result.Diagnostics)
	}
	if !strings.Contains(inv.Stack, "harness") {
		t.Errorf("captured stack missing: %q", inv.Stack)
	}
}

func TestSandboxConvertsPanicUnderWatchdog(t *testing.T) {
	// The goroutine-based (watchdog) path must recover panics too: an
	// unrecovered panic in a spawned goroutine would kill the process.
	target := &fakeTarget{fn: func(context.Context, int64) (*compilers.Result, error) {
		panic("boom in goroutine")
	}}
	h := New(Options{Timeout: time.Second})
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != Crashed {
		t.Fatalf("outcome = %s, want crashed", inv.Outcome)
	}
}

func TestWatchdogTimesOutHangs(t *testing.T) {
	target := &fakeTarget{fn: func(ctx context.Context, _ int64) (*compilers.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	h := New(Options{Timeout: 20 * time.Millisecond})
	start := time.Now()
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != TimedOut {
		t.Fatalf("outcome = %s, want timed-out", inv.Outcome)
	}
	if inv.Result == nil || inv.Result.Status != compilers.TimedOut {
		t.Fatalf("timeout result not synthesized: %+v", inv.Result)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog took %v to fire", elapsed)
	}
}

func TestAbortDistinctFromTimeout(t *testing.T) {
	// Parent-context cancellation must not masquerade as a compiler
	// hang: the campaign is shutting down, the compiler is innocent.
	ctx, cancel := context.WithCancel(context.Background())
	target := &fakeTarget{fn: func(c context.Context, _ int64) (*compilers.Result, error) {
		cancel()
		<-c.Done()
		return nil, c.Err()
	}}
	h := New(Options{Timeout: 10 * time.Second})
	inv := h.Compile(ctx, target, nil, nil, Key{})
	if inv.Outcome != Aborted {
		t.Fatalf("outcome = %s, want aborted", inv.Outcome)
	}
	if inv.Result != nil {
		t.Errorf("aborted invocation should carry no result")
	}
}

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	target := &fakeTarget{fn: func(_ context.Context, call int64) (*compilers.Result, error) {
		if call <= 2 {
			return nil, Transient(errors.New("spawn failed"))
		}
		return okResult()
	}}
	h := New(Options{Retries: 3, BackoffBase: time.Microsecond})
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != Completed {
		t.Fatalf("outcome = %s, want completed", inv.Outcome)
	}
	if inv.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", inv.Attempts)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	target := &fakeTarget{fn: func(context.Context, int64) (*compilers.Result, error) {
		return nil, Transient(errors.New("still broken"))
	}}
	h := New(Options{Retries: 2, BackoffBase: time.Microsecond})
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != Errored {
		t.Fatalf("outcome = %s, want errored", inv.Outcome)
	}
	if inv.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", inv.Attempts)
	}
	if got := target.calls.Load(); got != 3 {
		t.Errorf("target called %d times, want 3", got)
	}
}

func TestNonTransientErrorNotRetried(t *testing.T) {
	target := &fakeTarget{fn: func(context.Context, int64) (*compilers.Result, error) {
		return nil, errors.New("configuration error")
	}}
	h := New(Options{Retries: 5, BackoffBase: time.Microsecond})
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != Errored {
		t.Fatalf("outcome = %s, want errored", inv.Outcome)
	}
	if inv.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retry for permanent faults)", inv.Attempts)
	}
}

func TestDoubleCompileFlagsFlakyVerdicts(t *testing.T) {
	// The target accepts on the primary compile and rejects on the
	// probe replica: a nondeterministic compiler.
	target := &fakeTarget{fn: func(ctx context.Context, _ int64) (*compilers.Result, error) {
		key, _ := KeyFrom(ctx)
		if key.Replica == 1 {
			return &compilers.Result{Status: compilers.Rejected}, nil
		}
		return okResult()
	}}
	h := New(Options{DoubleCompile: true})
	inv := h.Compile(context.Background(), target, nil, nil, Key{})
	if inv.Outcome != Completed {
		t.Fatalf("outcome = %s, want completed", inv.Outcome)
	}
	if !inv.Flaky {
		t.Error("verdict flip not flagged flaky")
	}
	if inv.Result.Status != compilers.OK {
		t.Errorf("recorded result must be the primary's, got %s", inv.Result.Status)
	}

	steady := &fakeTarget{fn: func(context.Context, int64) (*compilers.Result, error) {
		return okResult()
	}}
	if inv := h.Compile(context.Background(), steady, nil, nil, Key{}); inv.Flaky {
		t.Error("deterministic target flagged flaky")
	}
}

// fuelTarget wraps a simulated compiler and records, per replica, the
// fuel each compile charged: zero means the compile read its input's
// shared check instead of running the checker.
type fuelTarget struct {
	Target
	spent [2]atomic.Int64
}

func (t *fuelTarget) Compile(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*compilers.Result, error) {
	res, err := t.Target.Compile(ctx, p, cov)
	key, _ := KeyFrom(ctx)
	t.spent[key.Replica].Store(governor.FromContext(ctx).Spent())
	return res, err
}

// TestDoubleCompileProbeRunsChecker: compiles of one input share its
// reference check, but the double-compile probe must run the checker
// again, or it could never catch a nondeterministic one.
func TestDoubleCompileProbeRunsChecker(t *testing.T) {
	p := generator.New(generator.DefaultConfig().WithSeed(4)).Generate()
	first := &fuelTarget{Target: WrapCompiler(compilers.Groovyc())}
	second := &fuelTarget{Target: WrapCompiler(compilers.Kotlinc())}
	h := New(Options{DoubleCompile: true})
	ctx := compilers.WithSharedCheck(context.Background())
	for _, target := range []*fuelTarget{first, second} {
		if inv := h.Compile(ctx, target, p, nil, Key{}); inv.Outcome != Completed || inv.Flaky {
			t.Fatalf("%s: outcome %s, flaky %v", target.Name(), inv.Outcome, inv.Flaky)
		}
	}
	if first.spent[0].Load() == 0 {
		t.Error("the first compile of the input did not run the checker")
	}
	if second.spent[0].Load() != 0 {
		t.Error("the second compile of the input ran the checker instead of reading the shared check")
	}
	for _, target := range []*fuelTarget{first, second} {
		if target.spent[1].Load() == 0 {
			t.Errorf("%s: the double-compile probe read the shared check instead of running the checker", target.Name())
		}
	}
}

// TestFuelHistogramCountsOnlyChecks: a compile that reads its input's
// shared check spends no fuel and must not mix a zero into the
// fuel-per-check histogram.
func TestFuelHistogramCountsOnlyChecks(t *testing.T) {
	p := generator.New(generator.DefaultConfig().WithSeed(4)).Generate()
	reg := metrics.NewRegistry()
	h := New(Options{Metrics: reg})
	ctx := compilers.WithSharedCheck(context.Background())
	for _, c := range compilers.All() {
		if inv := h.Compile(ctx, WrapCompiler(c), p, nil, Key{}); inv.Outcome != Completed {
			t.Fatalf("%s: outcome %s", c.Name(), inv.Outcome)
		}
	}
	want := map[string]int64{"groovyc": 1, "kotlinc": 0, "javac": 0}
	for name, n := range want {
		if got := reg.Histogram("harness.fuel_spent." + name).Snapshot().Count; got != n {
			t.Errorf("harness.fuel_spent.%s: %d observations, want %d", name, got, n)
		}
	}
}

func TestBreakerQuarantinesAfterConsecutiveFailures(t *testing.T) {
	target := &fakeTarget{fn: func(context.Context, int64) (*compilers.Result, error) {
		panic("always down")
	}}
	h := New(Options{BreakerThreshold: 3, BreakerCooldown: 2})
	var outcomes []Outcome
	for i := 0; i < 5; i++ {
		inv := h.Compile(context.Background(), target, nil, nil, Key{Unit: int64(i)})
		outcomes = append(outcomes, inv.Outcome)
	}
	want := []Outcome{Crashed, Crashed, Crashed, Quarantined, Quarantined}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("compile %d: outcome = %s, want %s (all: %v)", i, outcomes[i], want[i], outcomes)
		}
	}
	// Cooldown served: the next compile is the half-open probe; it
	// crashes, re-opening the breaker.
	if inv := h.Compile(context.Background(), target, nil, nil, Key{Unit: 5}); inv.Outcome != Crashed {
		t.Fatalf("probe outcome = %s, want crashed", inv.Outcome)
	}
	if got := h.Breaker(target.Name()).State(); got != BreakerOpen {
		t.Fatalf("breaker after failed probe = %s, want open", got)
	}
}

func TestBreakerRecoversThroughHalfOpenProbe(t *testing.T) {
	target := &fakeTarget{fn: func(_ context.Context, call int64) (*compilers.Result, error) {
		if call <= 2 {
			panic("temporarily down")
		}
		return okResult()
	}}
	h := New(Options{BreakerThreshold: 2, BreakerCooldown: 1})
	for i := 0; i < 2; i++ {
		h.Compile(context.Background(), target, nil, nil, Key{Unit: int64(i)})
	}
	if got := h.Breaker(target.Name()).State(); got != BreakerOpen {
		t.Fatalf("breaker = %s, want open after threshold", got)
	}
	// One quarantined compile serves the cooldown, the next probes
	// half-open, succeeds, and closes the breaker.
	if inv := h.Compile(context.Background(), target, nil, nil, Key{Unit: 2}); inv.Outcome != Quarantined {
		t.Fatalf("cooldown compile = %s, want quarantined", inv.Outcome)
	}
	if inv := h.Compile(context.Background(), target, nil, nil, Key{Unit: 3}); inv.Outcome != Completed {
		t.Fatalf("probe = %s, want completed", inv.Outcome)
	}
	if got := h.Breaker(target.Name()).State(); got != BreakerClosed {
		t.Fatalf("breaker = %s, want closed after successful probe", got)
	}
}

func TestBackoffScheduleDeterministicPerKey(t *testing.T) {
	h := New(Options{Seed: 42, BackoffBase: time.Millisecond})
	key := Key{Unit: 7, Input: 2}
	for attempt := 0; attempt < 3; attempt++ {
		d1 := h.backoffDelay(attempt, key)
		d2 := h.backoffDelay(attempt, key)
		if d1 != d2 {
			t.Fatalf("attempt %d: delays differ (%v vs %v)", attempt, d1, d2)
		}
		base := h.opts.BackoffBase << uint(attempt)
		if d1 < base || d1 >= 2*base+h.opts.BackoffBase {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d1, base, 2*base)
		}
	}
	// Different keys draw different jitter (thundering-herd avoidance).
	other := h.backoffDelay(0, Key{Unit: 8, Input: 2})
	if mine := h.backoffDelay(0, key); mine == other {
		t.Logf("note: jitter collision between distinct keys (legal, just unlikely): %v", mine)
	}
}

func TestWrapCompilerObservesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	target := WrapCompiler(compilers.Groovyc())
	if _, err := target.Compile(ctx, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile returned %v, want context.Canceled", err)
	}
}
