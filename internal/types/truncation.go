package types

import "sync/atomic"

// SuperChain's cyclic-climb cap appends ⊤ after 64 links so malformed
// hierarchies terminate — but a silently capped chain reads as "covered
// everything" to consumers like lub2 and the type graph's climb. The cap
// is therefore counted here and surfaced through an optional hook so
// observability wiring (internal/cli) can mirror it into a metrics
// counter and a trace event without this package importing
// internal/metrics.

var (
	superChainTruncations atomic.Uint64
	truncationHook        atomic.Value // of func()
)

func noteSuperChainTruncation() {
	superChainTruncations.Add(1)
	if f, ok := truncationHook.Load().(func()); ok && f != nil {
		f()
	}
}

// SuperChainTruncations returns how many SuperChain climbs hit the cyclic
// cap since process start.
func SuperChainTruncations() uint64 {
	return superChainTruncations.Load()
}

// SetSuperChainTruncationHook installs a callback fired on every capped
// climb. Pass nil to remove it. The hook runs on the climbing goroutine —
// keep it cheap and non-blocking.
func SetSuperChainTruncationHook(f func()) {
	if f == nil {
		truncationHook.Store(func() {})
		return
	}
	truncationHook.Store(f)
}
