// Package governor implements a deterministic resource governor for
// the type checker's hot recursive procedures: a fuel (step) budget, a
// recursion-depth guard, and cooperative cancellation.
//
// The wall-clock watchdog in internal/harness catches true hangs, but
// its verdict varies with machine speed — a borderline program can be
// CompilerHang on a slow worker and Pass on a fast one, which breaks
// the fabric guarantee that a sharded campaign merges byte-identical
// to a single-process run. A fuel budget counts *steps* instead of
// seconds: every recursive relation in internal/types and every
// expression the checker visits charges the budget, so a pathological
// program exhausts its fuel after the same number of steps on every
// machine, at every worker count, under every shard layout. Exhaustion
// surfaces as compilers.ResourceExhausted / oracle.ResourceExhausted —
// a reproducible "typing performance bug" verdict — while the
// wall-clock watchdog stays as a backstop for non-counting hangs.
//
// Determinism contract: a Budget is only deterministic if the charges
// it sees are a pure function of the program under check. The relations
// in internal/types keep no state between calls, so they are. Unguarded
// budgets (fuel 0, depth 0) still count steps for metrics and still poll
// cancellation, but never bail out.
//
// Charge points double as cancellation checkpoints: every
// DefaultPollEvery charges the budget polls its bound context and
// bails out cooperatively, which is what lets the harness watchdog's
// abandoned sandbox goroutine actually exit instead of leaking.
//
// A Budget is confined to a single goroutine (one compile invocation);
// all methods are nil-receiver-safe so call sites need no guards.
package governor

import (
	"context"
	"fmt"
)

// DefaultMaxDepth is the recursion-depth guard applied when a fuel
// budget is set without an explicit depth limit. The deepest sane
// recursion (nested generic applications, substitution into deep
// types) stays well under this; runaway recursion blows past it.
const DefaultMaxDepth = 512

// DefaultPollEvery is how many charged steps elapse between context
// cancellation polls. Polling is two loads and a branch when the
// context is live, so this mainly bounds staleness: a cancelled
// compile exits within DefaultPollEvery steps of the cancel.
const DefaultPollEvery = 1024

// Reason classifies why a guarded walk bailed out.
type Reason int

const (
	// FuelExhausted: the step budget ran dry. Deterministic.
	FuelExhausted Reason = iota
	// DepthExceeded: the recursion-depth guard tripped. Deterministic.
	DepthExceeded
	// Cancelled: the bound context was cancelled (watchdog timeout or
	// parent shutdown). Wall-clock dependent by nature; never reaches
	// a report — the harness maps it back to the context's error.
	Cancelled
)

func (r Reason) String() string {
	switch r {
	case FuelExhausted:
		return "fuel exhausted"
	case DepthExceeded:
		return "depth exceeded"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("unknown(%d)", int(r))
	}
}

// Bailout is the panic value a Budget raises when a guard trips. It is
// recovered inside checker.Check (never crossing the harness sandbox,
// whose recover classifies panics as compiler crashes) and recorded on
// the checker result.
type Bailout struct {
	Reason Reason
	// Spent is the fuel consumed when the guard tripped. Deterministic
	// for FuelExhausted and DepthExceeded; meaningless for Cancelled.
	Spent int64
	// Limit is the fuel budget (0 = unlimited).
	Limit int64
	// Depth is the recursion depth at a DepthExceeded bailout.
	Depth int
	// Err is the context error for Cancelled bailouts.
	Err error
}

func (b *Bailout) Error() string {
	switch b.Reason {
	case FuelExhausted:
		return fmt.Sprintf("fuel exhausted after %d steps (budget %d)", b.Spent, b.Limit)
	case DepthExceeded:
		return fmt.Sprintf("recursion depth %d exceeded after %d steps", b.Depth, b.Spent)
	case Cancelled:
		return fmt.Sprintf("cancelled: %v", b.Err)
	default:
		return b.Reason.String()
	}
}

// AsBailout reports whether a recovered panic value is a governor
// bailout. Any other panic must be re-raised by the caller.
func AsBailout(recovered any) (*Bailout, bool) {
	b, ok := recovered.(*Bailout)
	return b, ok
}

// Budget is a per-invocation step budget. The zero limit values make
// an unguarded budget: it counts steps (for fuel-spent metrics) and
// polls cancellation but never bails on fuel or depth.
type Budget struct {
	ctx       context.Context
	limit     int64
	spent     int64
	maxDepth  int
	depth     int
	pollEvery int64
	sincePoll int64
}

// New builds a budget. fuel <= 0 means unlimited fuel; maxDepth <= 0
// with a fuel limit defaults to DefaultMaxDepth (a fuel-guarded walk
// must also be depth-guarded or a deep recursion could overflow the
// goroutine stack before fuel runs out), and without one means no
// depth guard.
func New(fuel int64, maxDepth int) *Budget {
	if fuel < 0 {
		fuel = 0
	}
	if maxDepth <= 0 {
		if fuel > 0 {
			maxDepth = DefaultMaxDepth
		} else {
			maxDepth = 0
		}
	}
	return &Budget{limit: fuel, maxDepth: maxDepth, pollEvery: DefaultPollEvery}
}

// Bind attaches the context polled at fuel checkpoints. The harness
// binds its per-invocation timeout context so an abandoned compile
// observes the watchdog's cancel and exits.
func (b *Budget) Bind(ctx context.Context) {
	if b != nil {
		b.ctx = ctx
	}
}

// Charge spends n steps and trips the fuel guard or, periodically, the
// cancellation poll. n must reflect work actually done so counts stay
// machine-independent.
func (b *Budget) Charge(n int64) {
	if b == nil {
		return
	}
	b.spent += n
	if b.limit > 0 && b.spent > b.limit {
		panic(&Bailout{Reason: FuelExhausted, Spent: b.spent, Limit: b.limit})
	}
	b.sincePoll += n
	if b.sincePoll >= b.pollEvery {
		b.sincePoll = 0
		if b.ctx != nil {
			if err := b.ctx.Err(); err != nil {
				panic(&Bailout{Reason: Cancelled, Spent: b.spent, Limit: b.limit, Err: err})
			}
		}
	}
}

// Enter pushes one recursion level and trips the depth guard. Every
// Enter must be paired with an Exit on the non-panicking path; bailout
// panics abandon the walk wholesale, so unwound Exits don't matter.
func (b *Budget) Enter() {
	if b == nil {
		return
	}
	b.depth++
	if b.maxDepth > 0 && b.depth > b.maxDepth {
		panic(&Bailout{Reason: DepthExceeded, Spent: b.spent, Limit: b.limit, Depth: b.depth})
	}
}

// Exit pops one recursion level.
func (b *Budget) Exit() {
	if b != nil {
		b.depth--
	}
}

// Spent returns the steps charged so far. Only read it from the
// goroutine running the walk, or after that goroutine's result has
// been received over a channel (the harness does the latter).
func (b *Budget) Spent() int64 {
	if b == nil {
		return 0
	}
	return b.spent
}

// Limit returns the fuel budget (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

type ctxKey struct{}

// WithBudget returns a context carrying the budget, following the
// harness.WithKey pattern so the budget rides the existing
// context plumbing into compilers.CompileContext.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext extracts the budget installed by WithBudget, or nil.
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(ctxKey{}).(*Budget)
	return b
}
