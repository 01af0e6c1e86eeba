// Campaign observability: the adapter between the deterministic fold
// and the live metrics registry / event trace. Everything here is
// observation only — instruments mirror the fold, they never feed back
// into it — so a campaign's report is bit-for-bit identical with
// metrics on or off, at any worker count.

package campaign

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/oracle"
)

// observer mirrors folded units into live instruments. All methods are
// nil-safe, so the aggregator calls them unconditionally.
type observer struct {
	reg   *metrics.Registry
	trace *metrics.Trace

	units *metrics.Counter
	execs *metrics.Counter
	bugs  *metrics.Gauge
	diffs *metrics.Counter
}

// newObserver returns nil when the campaign is unobserved — the hot
// fold path then costs one nil check, nothing more.
func newObserver(reg *metrics.Registry, trace *metrics.Trace) *observer {
	if reg == nil && trace == nil {
		return nil
	}
	return &observer{
		reg:   reg,
		trace: trace,
		units: reg.Counter("campaign.units"),
		execs: reg.Counter("campaign.execs"),
		bugs:  reg.Gauge("campaign.bugs"),
		diffs: reg.Counter("campaign.disagreements"),
	}
}

// observeUnit mirrors one live-folded unit: throughput counters,
// per-compiler verdict counters, the distinct-bug gauge, and one
// verdict trace event per execution. Runs on the aggregator goroutine,
// in Seq order.
func (o *observer) observeUnit(rec *unitRecord, foundBugs int) {
	if o == nil {
		return
	}
	o.units.Inc()
	o.execs.Add(int64(len(rec.Execs)))
	o.bugs.Set(int64(foundBugs))
	for _, e := range rec.Execs {
		o.reg.Counter(verdictCounterName(e.Compiler, e.Kind, e.Verdict)).Inc()
		o.trace.Emit(metrics.Event{
			Kind:     "verdict",
			Seq:      rec.Seq,
			Unit:     rec.Seed,
			Stage:    e.Kind.String(),
			Compiler: e.Compiler,
			Verdict:  e.Verdict.String(),
		})
	}
	for i := range rec.Diffs {
		d := &rec.Diffs[i]
		o.diffs.Inc()
		for _, p := range d.Pairs {
			o.reg.Counter(diffPairCounterName(p[0], p[1])).Inc()
		}
		o.trace.Emit(metrics.Event{
			Kind:     "diff",
			Seq:      rec.Seq,
			Unit:     rec.Seed,
			Stage:    d.Kind.String(),
			Compiler: suspectLabel(d.Sus),
			Verdict:  "disagreement",
			Detail:   d.vector(),
		})
	}
}

// prime folds state restored by journal replay into
// the instruments, so a resumed campaign's live counters continue from
// where the killed run's left off instead of restarting at zero.
func (o *observer) prime(report *Report) {
	if o == nil {
		return
	}
	for _, b := range report.BugRate {
		o.units.Add(int64(b.Units))
		o.execs.Add(int64(b.Execs))
	}
	o.bugs.Set(int64(len(report.Found)))
	for comp, perKind := range report.Verdicts {
		for kind, perVerdict := range perKind {
			for verdict, n := range perVerdict {
				o.reg.Counter(verdictCounterName(comp, kind, verdict)).Add(int64(n))
			}
		}
	}
	for _, rec := range report.Disagreements {
		o.diffs.Add(int64(rec.Hits))
	}
	for pair, n := range report.DiffMatrix {
		if i := strings.IndexByte(pair, '|'); i >= 0 {
			o.reg.Counter(diffPairCounterName(pair[:i], pair[i+1:])).Add(int64(n))
		}
	}
}

// CorruptionObserver builds the journal-corruption hook for
// journal.Store.SetObserver (and for the fabric coordinator's
// shipped-journal replays): each quarantined record increments the
// journal_corrupt_records counter and emits a "journal" trace event, so
// corruption is visible live instead of only in RecoveryInfo. Returns
// nil when the campaign is unobserved.
func CorruptionObserver(reg *metrics.Registry, trace *metrics.Trace) func(journal.Corruption) {
	if reg == nil && trace == nil {
		return nil
	}
	corrupt := reg.Counter("journal_corrupt_records")
	return func(c journal.Corruption) {
		corrupt.Inc()
		trace.Emit(metrics.Event{
			Kind:   "journal",
			Seq:    -1,
			Stage:  "replay",
			Detail: c.String(),
		})
	}
}

func verdictCounterName(comp string, kind oracle.InputKind, verdict oracle.Verdict) string {
	return "campaign.verdicts." + comp + "." + kind.String() + "." + verdict.String()
}

// diffPairCounterName names the per-pair disagreement counter for the
// unordered (sorted) compiler pair a, b.
func diffPairCounterName(a, b string) string {
	return "campaign.diff_pairs." + a + "__" + b
}

// HeartbeatLine renders one progress line from a pair of status
// snapshots: units done (and units/s against the previous snapshot
// over elapsed), executions, distinct bugs, and breaker states. The CLI
// heartbeat and the server's SSE heartbeat stream both render through
// here, so the two surfaces can never drift apart.
func HeartbeatLine(prev, cur Status, elapsed time.Duration) string {
	rate := 0.0
	if elapsed > 0 {
		rate = float64(cur.Units-prev.Units) / elapsed.Seconds()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "heartbeat: units %d", cur.Units)
	if cur.Programs > 0 {
		fmt.Fprintf(&b, "/%d", cur.Programs)
	}
	fmt.Fprintf(&b, " (%.1f/s) execs %d bugs %d", rate, cur.Execs, cur.Bugs)
	if n := cur.Kinds[oracle.Synthesized.String()]; n > 0 {
		fmt.Fprintf(&b, " synth %d", n)
	}
	if cur.Disagreements > 0 {
		fmt.Fprintf(&b, " diffs %d", cur.Disagreements)
	}
	b.WriteString(" breakers " + breakerSummary(cur.Breakers))
	return b.String()
}

// StartHeartbeat launches a goroutine printing a HeartbeatLine to w
// every interval, rendered from status() — typically a Campaign's
// Status method. The returned stop function halts the ticker; it is
// safe to call more than once.
func StartHeartbeat(w io.Writer, status func() Status, interval time.Duration) (stop func()) {
	if status == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	ticker := time.NewTicker(interval)
	go func() {
		defer ticker.Stop()
		prev, lastBeat := Status{}, time.Now()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				cur := status()
				now := time.Now()
				fmt.Fprintln(w, HeartbeatLine(prev, cur, now.Sub(lastBeat)))
				prev, lastBeat = cur, now
			}
		}
	}()
	return func() {
		select {
		case <-done:
		default:
			close(done)
		}
	}
}

// breakerSummary renders the non-closed breakers from a status
// snapshot, or "closed" when every breaker is admitting traffic.
func breakerSummary(breakers map[string]harness.BreakerSnapshot) string {
	var open []string
	for name, snap := range breakers {
		if snap.State != harness.BreakerClosed {
			open = append(open, name+"="+snap.State.String())
		}
	}
	if len(open) == 0 {
		return "closed"
	}
	sort.Strings(open)
	return strings.Join(open, ",")
}
