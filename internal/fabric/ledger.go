// The fabric fault ledger: an audit of everything the distribution
// layer survived. It is deliberately a separate type from
// harness.Ledger — harness faults (crashes, timeouts, retries) are part
// of the deterministic report and must byte-compare against a
// single-process run, while fabric faults (worker deaths, stalls,
// refusals, reassignments) exist only because the campaign was
// sharded and would break byte-equality if they leaked into the report.

package fabric

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// WorkerRecord audits one worker's service over a campaign.
type WorkerRecord struct {
	// Leases counts lease attempts assigned to the worker (including
	// ones it never acknowledged).
	Leases int `json:"leases"`
	// Completed counts leases that ran to a fully merged shard.
	Completed int `json:"completed"`
	// Failures counts leases abandoned on this worker: refused or
	// unreachable lease grants, missed-heartbeat deaths, failed runs,
	// and shipments that left the shard uncovered.
	Failures int `json:"failures,omitempty"`
	// Quarantined is true when the worker's breaker was open at the end
	// of the campaign — the coordinator had stopped trusting it.
	Quarantined bool `json:"quarantined,omitempty"`
}

// Ledger is the coordinator's fault audit for one sharded campaign.
// All methods are safe for concurrent use.
type Ledger struct {
	mu sync.Mutex

	// Shards is the total shard count; ShardsDone counts shards whose
	// units all merged.
	Shards     int `json:"shards"`
	ShardsDone int `json:"shards_done"`
	// DegradedShards lists shards abandoned after exhausting their
	// attempt budget; their units are missing from the partial report.
	DegradedShards []int `json:"degraded_shards,omitempty"`
	// WorkerDeaths counts leases abandoned because the worker missed
	// its heartbeat deadline (a killed process and a stalled one are
	// indistinguishable from the coordinator's side).
	WorkerDeaths int `json:"worker_deaths,omitempty"`
	// LeaseRefusals counts lease grants the worker refused or never
	// acknowledged (unreachable, busy, or already dead).
	LeaseRefusals int `json:"lease_refusals,omitempty"`
	// Reassignments counts shard attempts launched beyond each shard's
	// first — the re-execution traffic dead and stalled workers caused.
	Reassignments int `json:"reassignments,omitempty"`
	// CorruptShippedRecords counts journal records quarantined while
	// merging shipped shard journals (the units simply re-ran).
	CorruptShippedRecords int `json:"corrupt_shipped_records,omitempty"`
	// PerWorker audits each worker by name.
	PerWorker map[string]*WorkerRecord `json:"per_worker,omitempty"`
}

// NewLedger returns an empty ledger for a campaign of shards shards.
func NewLedger(shards int) *Ledger {
	return &Ledger{Shards: shards, PerWorker: map[string]*WorkerRecord{}}
}

func (l *Ledger) worker(name string) *WorkerRecord {
	r := l.PerWorker[name]
	if r == nil {
		r = &WorkerRecord{}
		l.PerWorker[name] = r
	}
	return r
}

// Leased records a lease attempt assigned to worker name; reassigned
// marks attempts beyond the shard's first.
func (l *Ledger) Leased(name string, reassigned bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.worker(name).Leases++
	if reassigned {
		l.Reassignments++
	}
}

// Refused records a lease grant the worker refused or never answered.
func (l *Ledger) Refused(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.LeaseRefusals++
	l.worker(name).Failures++
}

// Died records a lease abandoned after missed heartbeats.
func (l *Ledger) Died(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.WorkerDeaths++
	l.worker(name).Failures++
}

// Failed records a lease that ran but did not cover its shard (failed
// run, corrupt or incomplete shipment).
func (l *Ledger) Failed(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.worker(name).Failures++
}

// Completed records a lease that ran to a fully merged shard.
func (l *Ledger) Completed(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ShardsDone++
	l.worker(name).Completed++
}

// Corrupt records n quarantined records from one shipped journal.
func (l *Ledger) Corrupt(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.CorruptShippedRecords += n
}

// Degraded records a shard abandoned after exhausting its attempts.
func (l *Ledger) Degraded(shard int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.DegradedShards = append(l.DegradedShards, shard)
	sort.Ints(l.DegradedShards)
}

// Quarantine marks a worker whose breaker ended the campaign open.
func (l *Ledger) Quarantine(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.worker(name).Quarantined = true
}

// Clone returns a deep copy safe to hold across later updates.
func (l *Ledger) Clone() *Ledger {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := &Ledger{
		Shards: l.Shards, ShardsDone: l.ShardsDone,
		DegradedShards: append([]int(nil), l.DegradedShards...),
		WorkerDeaths:   l.WorkerDeaths, LeaseRefusals: l.LeaseRefusals,
		Reassignments:         l.Reassignments,
		CorruptShippedRecords: l.CorruptShippedRecords,
		PerWorker:             map[string]*WorkerRecord{},
	}
	for name, r := range l.PerWorker {
		cp := *r
		out.PerWorker[name] = &cp
	}
	return out
}

// Faults reports whether the fabric survived anything worth printing.
func (l *Ledger) Faults() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.WorkerDeaths > 0 || l.LeaseRefusals > 0 || l.Reassignments > 0 ||
		l.CorruptShippedRecords > 0 || len(l.DegradedShards) > 0
}

// String renders the ledger for CLI output.
func (l *Ledger) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: %d/%d shards merged", l.ShardsDone, l.Shards)
	if len(l.DegradedShards) > 0 {
		fmt.Fprintf(&b, " (degraded: shards %v abandoned)", l.DegradedShards)
	}
	fmt.Fprintf(&b, "\n  worker deaths %d, lease refusals %d, reassignments %d, corrupt shipped records %d",
		l.WorkerDeaths, l.LeaseRefusals, l.Reassignments, l.CorruptShippedRecords)
	names := make([]string, 0, len(l.PerWorker))
	for name := range l.PerWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := l.PerWorker[name]
		fmt.Fprintf(&b, "\n  %s: leases %d, completed %d, failures %d", name, r.Leases, r.Completed, r.Failures)
		if r.Quarantined {
			b.WriteString(" [quarantined]")
		}
	}
	return b.String()
}
