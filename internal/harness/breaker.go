package harness

import (
	"fmt"
	"sync"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the compiler is quarantined; compiles are skipped
	// until the cooldown has been served.
	BreakerOpen
	// BreakerHalfOpen: one probe compile is in flight; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// MarshalJSON renders the position's name, so campaign status and
// heartbeats say "closed" rather than 0.
func (s BreakerState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Breaker is a count-based circuit breaker guarding one compiler.
// Unlike the classic wall-clock design, its cooldown is measured in
// skipped compiles, not elapsed time: campaign behaviour then depends
// only on the work stream, which keeps single-worker runs reproducible
// and makes the state machine testable without sleeping.
//
// Closed counts consecutive harness-level failures and opens at the
// threshold. Open skips compiles (the campaign records each gap) until
// cooldown of them have been served, then lets exactly one probe
// through half-open. A successful probe closes the breaker; a failed
// one re-opens it for another cooldown.
type Breaker struct {
	threshold int
	cooldown  int

	mu       sync.Mutex
	state    BreakerState
	failures int  // consecutive failures while closed
	skipped  int  // compiles skipped while open
	probing  bool // a half-open probe is in flight

	// onTransition, when set, observes every state change (called with
	// the lock held, so it must not call back into the breaker). It is
	// wired by the harness to the event trace and breaker-state gauge.
	onTransition func(from, to BreakerState)
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures and probes after cooldown skipped compiles. threshold <= 0
// disables the breaker: Allow always admits and Record never trips.
func NewBreaker(threshold, cooldown int) *Breaker {
	if cooldown <= 0 {
		cooldown = 2 * threshold
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// OnTransition registers an observer for state changes. Observation
// only: the callback runs with the breaker's lock held and must not
// call back into the breaker.
func (b *Breaker) OnTransition(fn func(from, to BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onTransition = fn
}

// setState moves the breaker to a new position, notifying the observer.
// Callers hold b.mu.
func (b *Breaker) setState(to BreakerState) {
	from := b.state
	b.state = to
	if b.onTransition != nil && from != to {
		b.onTransition(from, to)
	}
}

// Allow reports whether a compile may proceed. A false return means the
// compile is quarantined and the caller should record the gap. When an
// open breaker has served its cooldown, the admitting call becomes the
// half-open probe.
func (b *Breaker) Allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.skipped < b.cooldown {
			b.skipped++
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false // one probe at a time
		}
		b.probing = true
		return true
	}
}

// Record reports an admitted compile's harness-level outcome: ok means
// the compiler produced a result (even a buggy one); !ok means a crash,
// timeout, or persistent harness error.
func (b *Breaker) Record(ok bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.setState(BreakerOpen)
			b.skipped = 0
		}
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.setState(BreakerClosed)
			b.failures = 0
		} else {
			b.setState(BreakerOpen)
			b.skipped = 0
		}
	default:
		// A late call finishing after the breaker opened; consecutive
		// accounting restarts at the next probe.
	}
}

// Trip opens the breaker at once, whatever its position: the caller has
// conclusive evidence the guarded target is down, so there is nothing to
// count. The target returns only through a half-open probe after a full
// cooldown.
func (b *Breaker) Trip() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(BreakerOpen)
	b.skipped = 0
	b.probing = false
}

// BreakerSnapshot is a breaker's exportable position, shown in campaign
// status. A resumed campaign does not import it: the position is a pure
// function of the Allow/Record call sequence, which the campaign
// re-derives from its journal.
type BreakerSnapshot struct {
	State    BreakerState `json:"state"`
	Failures int          `json:"failures,omitempty"`
	Skipped  int          `json:"skipped,omitempty"`
}

// Export captures the breaker's position. An in-flight half-open probe
// exports as half-open; the probe marker itself is not part of the
// position.
func (b *Breaker) Export() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{State: b.state, Failures: b.failures, Skipped: b.skipped}
}

// String renders the breaker for logs.
func (b *Breaker) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fmt.Sprintf("breaker(%s, failures=%d, skipped=%d)", b.state, b.failures, b.skipped)
}
