package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// ChaosOptions configures deterministic fault injection. Every decision
// is drawn from a generator seeded by (Seed, compiler name, invocation
// Key), never from global call order, so for a fixed seed the same
// faults hit the same compiles whatever the worker count — which is
// what lets a chaos soak assert a bit-for-bit deterministic report.
type ChaosOptions struct {
	// Seed drives every injection decision.
	Seed int64
	// PanicRate is the probability a compile panics (exercising the
	// sandbox).
	PanicRate float64
	// HangRate is the probability a compile hangs (exercising the
	// watchdog).
	HangRate float64
	// TransientRate is the probability a compile's first attempt fails
	// with a retryable error (exercising backoff). Only attempt 0 is
	// eligible, so every injected transient costs exactly one retry.
	TransientRate float64
	// FlakyRate is the probability the double-compile probe sees a
	// flipped verdict (exercising the nondeterminism detector). Only the
	// probe replica is flipped; the recorded result is untouched.
	FlakyRate float64
	// HangDuration bounds an injected hang for harnesses without a
	// watchdog; 0 means 30s. Hangs are context-aware. Under the harness
	// watchdog an injected hang ends at once in the watchdog's verdict.
	HangDuration time.Duration
}

// InjectionCounts tallies the faults a chaos wrapper injected — the
// ground truth a fault ledger is audited against.
type InjectionCounts struct {
	Panics, Hangs, Transients, Flips int64
}

// Total returns the number of injected faults of all kinds.
func (c InjectionCounts) Total() int64 { return c.Panics + c.Hangs + c.Transients + c.Flips }

// Chaos wraps a Target and injects hangs, panics, transient errors, and
// flaky verdicts at the configured rates. It implements Target, so it
// slots between the harness and any compiler.
type Chaos struct {
	opts   ChaosOptions
	target Target
	trace  *metrics.Trace

	panics, hangs, transients, flips atomic.Int64

	// perUnit attributes injections to the owning pipeline unit (by its
	// seed, carried in the invocation key), so the campaign can fold —
	// and journal — injected ground truth per unit instead of reading
	// one global counter at the end of the run.
	mu      sync.Mutex
	perUnit map[int64]*InjectionCounts
}

// NewChaos wraps target with seeded fault injection.
func NewChaos(opts ChaosOptions, target Target) *Chaos {
	if opts.HangDuration <= 0 {
		opts.HangDuration = 30 * time.Second
	}
	return &Chaos{opts: opts, target: target, perUnit: map[int64]*InjectionCounts{}}
}

// WithTrace attaches an event trace: every injected fault is emitted as
// a "chaos" event. Observation only. Returns c for chaining.
func (c *Chaos) WithTrace(trace *metrics.Trace) *Chaos {
	c.trace = trace
	return c
}

// Name implements Target.
func (c *Chaos) Name() string { return c.target.Name() }

// Injected returns the faults injected so far. Totals are sums over
// per-invocation decisions, so they are deterministic for a fixed seed
// and campaign regardless of execution order.
func (c *Chaos) Injected() InjectionCounts {
	return InjectionCounts{
		Panics:     c.panics.Load(),
		Hangs:      c.hangs.Load(),
		Transients: c.transients.Load(),
		Flips:      c.flips.Load(),
	}
}

// note tallies one injected fault, both globally and against the
// invocation's owning unit, and emits a trace event when a trace is
// attached.
func (c *Chaos) note(unit int64, kind string, global *atomic.Int64, bump func(*InjectionCounts)) {
	global.Add(1)
	c.mu.Lock()
	u := c.perUnit[unit]
	if u == nil {
		u = &InjectionCounts{}
		c.perUnit[unit] = u
	}
	bump(u)
	c.mu.Unlock()
	c.trace.Emit(metrics.Event{
		Kind: "chaos", Unit: unit, Compiler: c.target.Name(), Detail: kind,
	})
}

// DrainUnit returns and clears the faults injected into one unit's
// compiles. The pipeline's Execute stage drains each unit after its
// last compile, handing the per-unit ground truth to the aggregator —
// deterministic for a fixed seed because every injection decision is
// keyed on the invocation, never on arrival order.
func (c *Chaos) DrainUnit(unit int64) InjectionCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.perUnit[unit]
	if u == nil {
		return InjectionCounts{}
	}
	delete(c.perUnit, unit)
	return *u
}

// Compile implements Target: roll the invocation's dice, misbehave if
// they say so, otherwise delegate to the real compiler.
func (c *Chaos) Compile(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*compilers.Result, error) {
	key, _ := KeyFrom(ctx)
	rng := rand.New(rand.NewSource(int64(mix64(
		uint64(c.opts.Seed) ^ hashString(c.target.Name()) ^ uint64(key.hash())))))

	if key.Replica == 0 {
		if rng.Float64() < c.opts.PanicRate {
			c.note(key.Unit, "panic", &c.panics, func(u *InjectionCounts) { u.Panics++ })
			panic(fmt.Sprintf("chaos: injected panic (unit %d, input %d, attempt %d)",
				key.Unit, key.Input, key.Attempt))
		}
		if rng.Float64() < c.opts.HangRate {
			c.note(key.Unit, "hang", &c.hangs, func(u *InjectionCounts) { u.Hangs++ })
			if key.watchdog {
				// The watchdog ends every hang as TimedOut; ending it now
				// rather than at the deadline keeps chaos verdicts off the
				// wall clock, so a watchdog can sit far above any real
				// compile without each injected hang costing that long.
				return nil, context.DeadlineExceeded
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.opts.HangDuration):
				// No watchdog caught us; fall through to a late result,
				// as a real stalled-but-recovering compiler would.
			}
		}
		if key.Attempt == 0 && rng.Float64() < c.opts.TransientRate {
			c.note(key.Unit, "transient", &c.transients, func(u *InjectionCounts) { u.Transients++ })
			return nil, Transient(errors.New("chaos: injected transient fault"))
		}
	}

	res, err := c.target.Compile(ctx, p, cov)
	if err == nil && key.Replica == 1 && rng.Float64() < c.opts.FlakyRate {
		if flipped := flipStatus(res); flipped != nil {
			c.note(key.Unit, "flip", &c.flips, func(u *InjectionCounts) { u.Flips++ })
			return flipped, nil
		}
	}
	return res, err
}

// flipStatus returns a copy of res with an inverted accept/reject
// verdict, or nil if the status has no meaningful flip (crashes stay
// crashes).
func flipStatus(res *compilers.Result) *compilers.Result {
	out := *res
	switch res.Status {
	case compilers.OK:
		out.Status = compilers.Rejected
	case compilers.Rejected:
		out.Status = compilers.OK
	default:
		return nil
	}
	return &out
}
