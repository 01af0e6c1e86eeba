package harness

import (
	"context"
	"testing"
	"time"

	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/ir"
)

// quietTarget always compiles OK.
type quietTarget struct{}

func (quietTarget) Name() string { return "quiet" }

func (quietTarget) Compile(context.Context, *ir.Program, coverage.Recorder) (*compilers.Result, error) {
	return &compilers.Result{Status: compilers.OK}, nil
}

// chaosEnding captures how one chaos compile ended, for comparing runs.
type chaosEnding struct {
	status    compilers.Status
	err       string
	panicked  bool
	transient bool
}

// runOne invokes the chaos wrapper once under the sandbox and records
// the ending.
func runOne(c *Chaos, key Key) chaosEnding {
	ctx, cancel := context.WithTimeout(WithKey(context.Background(), key), 5*time.Second)
	defer cancel()
	var out chaosEnding
	func() {
		defer func() {
			if r := recover(); r != nil {
				out.panicked = true
			}
		}()
		res, err := c.Compile(ctx, nil, nil)
		if err != nil {
			out.err = err.Error()
			out.transient = IsTransient(err)
			return
		}
		out.status = res.Status
	}()
	return out
}

func TestChaosDecisionsKeyedNotOrdered(t *testing.T) {
	opts := ChaosOptions{Seed: 1, PanicRate: 0.2, HangRate: 0.2, TransientRate: 0.2, HangDuration: time.Millisecond}
	keys := make([]Key, 50)
	for i := range keys {
		keys[i] = Key{Unit: int64(i), Input: i % 3}
	}

	// First run: in order.
	c1 := NewChaos(opts, quietTarget{})
	forward := make([]chaosEnding, len(keys))
	for i, k := range keys {
		forward[i] = runOne(c1, k)
	}
	// Second run: reverse order. Same decisions must land on the same
	// keys — injection depends on the key, never on call order.
	c2 := NewChaos(opts, quietTarget{})
	backward := make([]chaosEnding, len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		backward[i] = runOne(c2, keys[i])
	}
	for i := range keys {
		if forward[i] != backward[i] {
			t.Fatalf("key %d: ending depends on call order: %+v vs %+v", i, forward[i], backward[i])
		}
	}
	if c1.Injected() != c2.Injected() {
		t.Fatalf("injection counts depend on call order: %+v vs %+v", c1.Injected(), c2.Injected())
	}
	if c1.Injected().Total() == 0 {
		t.Fatal("no faults injected at 20% rates over 50 compiles")
	}
}

func TestChaosTransientOnlyOnFirstAttempt(t *testing.T) {
	c := NewChaos(ChaosOptions{Seed: 3, TransientRate: 1}, quietTarget{})
	if e := runOne(c, Key{Unit: 9}); !e.transient {
		t.Fatalf("attempt 0 should fail transiently at rate 1, got %+v", e)
	}
	if e := runOne(c, Key{Unit: 9, Attempt: 1}); e.status != compilers.OK {
		t.Fatalf("attempt 1 should succeed (transients only hit attempt 0), got %+v", e)
	}
	if got := c.Injected().Transients; got != 1 {
		t.Errorf("injected transients = %d, want 1", got)
	}
}

func TestChaosSparesProbeReplicaFromFaults(t *testing.T) {
	// Panics/hangs/transients target only the primary compile, so every
	// injected fault is attributable to exactly one ledger entry.
	c := NewChaos(ChaosOptions{Seed: 5, PanicRate: 1}, quietTarget{})
	if e := runOne(c, Key{Unit: 2}); !e.panicked {
		t.Fatalf("primary replica should panic at rate 1, got %+v", e)
	}
	if e := runOne(c, Key{Unit: 2, Replica: 1}); e.status != compilers.OK {
		t.Fatalf("probe replica should be spared injected panics, got %+v", e)
	}
}

func TestChaosFlipsOnlyProbeVerdicts(t *testing.T) {
	c := NewChaos(ChaosOptions{Seed: 7, FlakyRate: 1}, quietTarget{})
	if e := runOne(c, Key{Unit: 4}); e.status != compilers.OK {
		t.Fatalf("primary verdict should be untouched, got %+v", e)
	}
	if e := runOne(c, Key{Unit: 4, Replica: 1}); e.status != compilers.Rejected {
		t.Fatalf("probe verdict should flip at rate 1, got %+v", e)
	}
	if got := c.Injected().Flips; got != 1 {
		t.Errorf("injected flips = %d, want 1", got)
	}
}

func TestChaosHangObservesContext(t *testing.T) {
	c := NewChaos(ChaosOptions{Seed: 11, HangRate: 1, HangDuration: time.Hour}, quietTarget{})
	key := Key{Unit: 6}
	ctx, cancel := context.WithTimeout(WithKey(context.Background(), key), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Compile(ctx, nil, nil)
	if err == nil {
		t.Fatal("hung compile returned without error before its duration")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("injected hang ignored context for %v", elapsed)
	}
	if got := c.Injected().Hangs; got != 1 {
		t.Errorf("injected hangs = %d, want 1", got)
	}
}

func TestChaosThroughHarnessLedgerAudit(t *testing.T) {
	// End-to-end at the harness level: run many keyed compiles through
	// chaos + harness and check the ledger accounts for every injected
	// fault.
	chaos := NewChaos(ChaosOptions{
		Seed:          13,
		PanicRate:     0.15,
		HangRate:      0.15,
		TransientRate: 0.15,
		FlakyRate:     0.15,
		HangDuration:  10 * time.Second,
	}, quietTarget{})
	h := New(Options{
		Timeout:       25 * time.Millisecond,
		Retries:       2,
		BackoffBase:   time.Microsecond,
		DoubleCompile: true,
	})
	ledger := NewLedger()
	for unit := 0; unit < 80; unit++ {
		inv := h.Compile(context.Background(), chaos, nil, nil, Key{Unit: int64(unit)})
		ledger.Observe(chaos.Name(), inv)
	}
	inj := chaos.Injected()
	rec := ledger.PerCompiler["quiet"]
	if rec == nil {
		t.Fatal("ledger has no record for the chaos target")
	}
	if inj.Panics == 0 || inj.Hangs == 0 || inj.Transients == 0 || inj.Flips == 0 {
		t.Fatalf("expected every fault kind at 15%% over 80 compiles: %+v", inj)
	}
	if int64(rec.Crashes) != inj.Panics {
		t.Errorf("ledger crashes = %d, injected panics = %d", rec.Crashes, inj.Panics)
	}
	if int64(rec.Timeouts) != inj.Hangs {
		t.Errorf("ledger timeouts = %d, injected hangs = %d", rec.Timeouts, inj.Hangs)
	}
	if int64(rec.Retries) != inj.Transients {
		t.Errorf("ledger retries = %d, injected transients = %d", rec.Retries, inj.Transients)
	}
	if int64(rec.Flaky) != inj.Flips {
		t.Errorf("ledger flaky = %d, injected flips = %d", rec.Flaky, inj.Flips)
	}
	if rec.Compiles != 80 {
		t.Errorf("ledger compiles = %d, want 80", rec.Compiles)
	}
}

func TestChaosDrainUnitMatchesGlobalCounts(t *testing.T) {
	c := NewChaos(ChaosOptions{Seed: 5, PanicRate: 0.3, TransientRate: 0.3, HangRate: 0.3, HangDuration: time.Millisecond}, quietTarget{})
	units := []int64{3, 7, 11, 19, 23, 42, 57, 91}
	for _, u := range units {
		for input := 0; input < 4; input++ {
			runOne(c, Key{Unit: u, Input: input})
		}
	}
	var sum InjectionCounts
	for _, u := range units {
		d := c.DrainUnit(u)
		sum.Panics += d.Panics
		sum.Hangs += d.Hangs
		sum.Transients += d.Transients
		sum.Flips += d.Flips
	}
	if sum != c.Injected() {
		t.Fatalf("per-unit drains %+v do not sum to global %+v", sum, c.Injected())
	}
	if sum.Total() == 0 {
		t.Fatal("no faults injected at 30% rates")
	}
	// Draining is destructive: a second drain is empty.
	for _, u := range units {
		if d := c.DrainUnit(u); d.Total() != 0 {
			t.Fatalf("unit %d drained twice: %+v", u, d)
		}
	}
}

func TestLedgerAddInjectedAccumulates(t *testing.T) {
	l := NewLedger()
	l.AddInjected("groovyc", InjectionCounts{Panics: 1, Hangs: 2})
	l.AddInjected("groovyc", InjectionCounts{Transients: 3, Flips: 4})
	l.AddInjected("groovyc", InjectionCounts{}) // zero delta: no-op
	got := l.Injected["groovyc"]
	want := InjectionCounts{Panics: 1, Hangs: 2, Transients: 3, Flips: 4}
	if got != want {
		t.Fatalf("accumulated = %+v, want %+v", got, want)
	}
	// A zero delta must not materialize an entry (DeepEqual hygiene).
	l.AddInjected("javac", InjectionCounts{})
	if _, ok := l.Injected["javac"]; ok {
		t.Fatal("zero-count AddInjected created a ledger entry")
	}
}

// TestLedgerCountsRetriesOfInvocationsThatRan: a quarantined compile
// never ran (Attempts == 0), so it adds no retries — not minus one.
func TestLedgerCountsRetriesOfInvocationsThatRan(t *testing.T) {
	l := NewLedger()
	for _, inv := range []Invocation{
		{Outcome: Completed, Attempts: 1},
		{Outcome: Completed, Attempts: 3},
		{Outcome: Quarantined},
		{Outcome: Errored, Attempts: 2},
		{Outcome: Quarantined},
	} {
		l.Observe("groovyc", inv)
	}
	rec := l.PerCompiler["groovyc"]
	if rec.Retries != 3 || rec.Quarantined != 2 || rec.Compiles != 5 {
		t.Fatalf("ledger = %+v, want 3 retries, 2 quarantined, 5 compiles", rec)
	}
}

// TestChaosHangEndsAtOnceUnderWatchdog: under the harness watchdog an
// injected hang is a TimedOut verdict without waiting the deadline out,
// so a watchdog far above any real compile costs chaos runs nothing.
func TestChaosHangEndsAtOnceUnderWatchdog(t *testing.T) {
	c := NewChaos(ChaosOptions{Seed: 11, HangRate: 1, HangDuration: time.Hour}, quietTarget{})
	h := New(Options{Timeout: time.Hour})
	start := time.Now()
	inv := h.Compile(context.Background(), c, nil, nil, Key{Unit: 6})
	if inv.Outcome != TimedOut || inv.Result == nil || inv.Result.Status != compilers.TimedOut {
		t.Fatalf("injected hang under the watchdog = %+v, want a TimedOut result", inv)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("injected hang waited %v for an hour-long watchdog", elapsed)
	}
	if got := c.Injected().Hangs; got != 1 {
		t.Errorf("injected hangs = %d, want 1", got)
	}
}
