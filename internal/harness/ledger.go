package harness

import (
	"fmt"
	"sort"
	"strings"
)

// FaultRecord tallies one compiler's harness-level events over a
// campaign.
type FaultRecord struct {
	// Compiles counts primary invocations that reached the harness
	// (double-compile probes excluded).
	Compiles int
	// Crashes counts sandbox-captured panics.
	Crashes int
	// Timeouts counts watchdog expirations.
	Timeouts int
	// Retries counts retry attempts performed after transient faults.
	Retries int
	// Errored counts invocations whose harness-level error persisted
	// after every retry; the compile produced no result (a gap).
	Errored int
	// Quarantined counts compiles skipped by an open circuit breaker
	// (also gaps).
	Quarantined int
	// Flaky counts invocations whose double-compile probe disagreed with
	// the primary verdict.
	Flaky int
}

// Gaps returns the number of compiles that produced no judgeable
// result: the campaign degraded gracefully instead of stalling.
func (r *FaultRecord) Gaps() int { return r.Errored + r.Quarantined }

func (r *FaultRecord) add(o *FaultRecord) {
	r.Compiles += o.Compiles
	r.Crashes += o.Crashes
	r.Timeouts += o.Timeouts
	r.Retries += o.Retries
	r.Errored += o.Errored
	r.Quarantined += o.Quarantined
	r.Flaky += o.Flaky
}

// Ledger is a campaign's fault account: per-compiler harness events,
// plus (under chaos testing) the injected-fault ground truth to audit
// them against. It is populated by the aggregator in unit order, so for
// a fixed campaign its contents are deterministic across worker counts.
type Ledger struct {
	// PerCompiler maps compiler name to its fault record.
	PerCompiler map[string]*FaultRecord
	// Injected maps compiler name to the faults its chaos wrapper
	// injected; empty when chaos is off.
	Injected map[string]InjectionCounts
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{PerCompiler: map[string]*FaultRecord{}, Injected: map[string]InjectionCounts{}}
}

// record returns the (created-on-demand) record for a compiler.
func (l *Ledger) record(compiler string) *FaultRecord {
	r := l.PerCompiler[compiler]
	if r == nil {
		r = &FaultRecord{}
		l.PerCompiler[compiler] = r
	}
	return r
}

// Observe folds one invocation into the ledger. Only an invocation
// that ran counts retries: a quarantined one made no attempt at all.
func (l *Ledger) Observe(compiler string, inv Invocation) {
	r := l.record(compiler)
	r.Compiles++
	if inv.Attempts > 0 {
		r.Retries += inv.Attempts - 1
	}
	if inv.Flaky {
		r.Flaky++
	}
	switch inv.Outcome {
	case Crashed:
		r.Crashes++
	case TimedOut:
		r.Timeouts++
	case Errored:
		r.Errored++
	case Quarantined:
		r.Quarantined++
	}
}

// AddInjected folds one unit's injected-fault deltas into the audit
// count. The campaign aggregator calls it per unit, in Seq order, so
// the injected ground truth is deterministic across worker counts and
// — unlike a global end-of-run read — journals and restores exactly.
func (l *Ledger) AddInjected(compiler string, counts InjectionCounts) {
	if counts.Total() == 0 {
		return
	}
	c := l.Injected[compiler]
	c.Panics += counts.Panics
	c.Hangs += counts.Hangs
	c.Transients += counts.Transients
	c.Flips += counts.Flips
	l.Injected[compiler] = c
}

// Clone deep-copies the ledger, so a status snapshot can outlive the
// fold that produced it. A nil ledger clones to nil.
func (l *Ledger) Clone() *Ledger {
	if l == nil {
		return nil
	}
	c := NewLedger()
	for name, r := range l.PerCompiler {
		cp := *r
		c.PerCompiler[name] = &cp
	}
	for name, inj := range l.Injected {
		c.Injected[name] = inj
	}
	return c
}

// Total sums every compiler's record.
func (l *Ledger) Total() FaultRecord {
	var total FaultRecord
	for _, r := range l.PerCompiler {
		total.add(r)
	}
	return total
}

// Faults reports whether the ledger recorded any harness-level event
// worth showing (crash, timeout, retry, gap, or flaky verdict).
func (l *Ledger) Faults() bool {
	t := l.Total()
	return t.Crashes+t.Timeouts+t.Retries+t.Errored+t.Quarantined+t.Flaky > 0
}

// String renders the ledger, one compiler per line, with injected
// ground truth when chaos was on.
func (l *Ledger) String() string {
	var names []string
	for name := range l.PerCompiler {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("fault ledger:\n")
	for _, name := range names {
		r := l.PerCompiler[name]
		fmt.Fprintf(&b, "  %-8s %5d compiles  %3d crashed  %3d timed out  %3d retries  %3d flaky  %3d gaps (%d errored, %d quarantined)\n",
			name, r.Compiles, r.Crashes, r.Timeouts, r.Retries, r.Flaky, r.Gaps(), r.Errored, r.Quarantined)
		if inj, ok := l.Injected[name]; ok && inj.Total() > 0 {
			fmt.Fprintf(&b, "  %-8s injected: %d panics, %d hangs, %d transients, %d verdict flips\n",
				"", inj.Panics, inj.Hangs, inj.Transients, inj.Flips)
		}
	}
	return b.String()
}
