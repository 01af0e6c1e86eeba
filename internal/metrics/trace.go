package metrics

import "sync"

// Event is one structured trace record: a unit flowing through a stage,
// a verdict, a retry, a fault, a breaker transition, an injected chaos
// fault. Events are keyed by the owning unit (sequence number and seed),
// not by wall-clock time, because the campaign's determinism contract is
// seq-ordered; the ring's arrival order is best-effort and purely
// observational.
type Event struct {
	// ID is the event's append index since the trace was created; the
	// /events endpoint uses it as a cursor.
	ID int64 `json:"id"`
	// Seq is the owning pipeline unit's sequence number, -1 when the
	// event is not unit-scoped.
	Seq int `json:"seq"`
	// Unit is the owning unit's seed, 0 when not unit-scoped.
	Unit int64 `json:"unit,omitempty"`
	// Kind classifies the event: "verdict", "retry", "fault", "flaky",
	// "breaker", "chaos", "journal" (corrupt-record quarantine), or
	// "fabric" (shard lease, reassignment and merge activity).
	Kind string `json:"kind"`
	// Stage is the pipeline stage or input kind involved, if any.
	Stage string `json:"stage,omitempty"`
	// Compiler is the compiler under test, if any.
	Compiler string `json:"compiler,omitempty"`
	// Verdict is the oracle verdict for "verdict" events.
	Verdict string `json:"verdict,omitempty"`
	// Detail carries kind-specific context (attempt number, breaker
	// transition, injected fault class).
	Detail string `json:"detail,omitempty"`
}

// Trace is a fixed-capacity ring buffer of Events. Appends never block
// and never allocate once the ring is warm; old events are overwritten.
// All methods tolerate a nil receiver, so tracing can be wired
// unconditionally and disabled by leaving the trace nil.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	next int64 // total events ever appended
}

// NewTrace returns a ring holding the most recent capacity events;
// capacity <= 0 means 1024.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Emit appends one event, overwriting the oldest when full.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.ID = t.next
	t.buf[t.next%int64(len(t.buf))] = e
	t.next++
	t.mu.Unlock()
}

// Total returns how many events were ever emitted (including ones the
// ring has since overwritten).
func (t *Trace) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Tail returns the most recent n events, oldest first. n <= 0 or beyond
// the retained window returns everything retained.
func (t *Trace) Tail(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	retained := t.next
	if retained > int64(len(t.buf)) {
		retained = int64(len(t.buf))
	}
	if n <= 0 || int64(n) > retained {
		n = int(retained)
	}
	out := make([]Event, 0, n)
	for i := t.next - int64(n); i < t.next; i++ {
		out = append(out, t.buf[i%int64(len(t.buf))])
	}
	return out
}
