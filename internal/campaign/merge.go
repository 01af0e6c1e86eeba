// Merger: the coordinator-side half of a sharded campaign. A shard
// covering global units [lo, hi) runs as an ordinary worker campaign
// with Seed = global seed + lo and Programs = hi - lo, journals locally,
// and ships its journal back; the coordinator folds every shipped
// record through the same commutative fold a live aggregator uses,
// remapping shard-local Seq by the shard's offset. Because the fold is
// commutative and the Merger dedups per global seq, shards can arrive
// in any order, a reassigned shard can replay records its dead
// predecessor already shipped, and a re-run after an incomplete
// shipment can re-ship the units the salvaged part already folded — the
// first fold of each unit wins and every later copy is a no-op. The merged report is therefore byte-identical
// to an uninterrupted single-process run of the global options.

package campaign

import (
	"encoding/json"
	"fmt"

	"repro/internal/compilers"
)

// Merger folds shipped shard journals into one global report. Not safe
// for concurrent use: the coordinator serializes folds (they are cheap
// map updates; the compiles happened on the workers).
type Merger struct {
	report *Report
	agg    *reportAggregator
	done   map[int]bool
}

// NewMerger returns a merger for the global campaign options, with nil
// Compilers meaning all three as in New, so the merged report and a
// single-process report agree on what the campaign was.
func NewMerger(opts Options) *Merger {
	if opts.Compilers == nil {
		opts.Compilers = compilers.All()
	}
	report := newReport(opts)
	return &Merger{
		report: report,
		agg:    &reportAggregator{report: report, bugIndex: bugIndexFor(opts.Compilers)},
		done:   map[int]bool{},
	}
}

// FoldRecord folds one shipped journal record whose shard-local Seq is
// offset by seqOffset (the shard's global lower bound). Returns false
// with a nil error for a duplicate — a unit already folded from an
// earlier attempt of the same shard — which is the
// dedup that makes re-execution idempotent. A record that decodes but
// describes a unit outside the campaign, or whose seed disagrees with
// its remapped seq, is corrupt-by-content: the frame checksum passed
// but the payload cannot belong to this campaign.
func (m *Merger) FoldRecord(payload []byte, seqOffset int) (bool, error) {
	var rec unitRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return false, fmt.Errorf("campaign: undecodable shipped record: %w", err)
	}
	seq := rec.Seq + seqOffset
	if seq < 0 || seq >= m.report.Opts.Programs {
		return false, fmt.Errorf("campaign: shipped record seq %d (offset %d) outside campaign [0, %d)",
			rec.Seq, seqOffset, m.report.Opts.Programs)
	}
	if want := m.report.Opts.Seed + int64(seq); rec.Seed != want {
		return false, fmt.Errorf("campaign: shipped record seq %d carries seed %d, want %d; wrong shard or corrupt payload",
			seq, rec.Seed, want)
	}
	if m.done[seq] {
		return false, nil
	}
	rec.Seq = seq
	m.agg.fold(&rec)
	m.done[seq] = true
	return true, nil
}

// Units returns how many distinct units have folded so far.
func (m *Merger) Units() int { return len(m.done) }

// Missing returns the global seqs in [lo, hi) not yet folded, in
// order — the coverage check a coordinator runs after merging a shard's
// journal, and the re-run list when quarantined corruption left holes.
func (m *Merger) Missing(lo, hi int) []int {
	var out []int
	for seq := lo; seq < hi; seq++ {
		if !m.done[seq] {
			out = append(out, seq)
		}
	}
	return out
}

// Finish seals the merge and returns the global report: err — nil for
// a fully covered campaign — becomes Report.Err, exactly as a
// single-process run records it.
func (m *Merger) Finish(err error) *Report {
	m.report.Err = err
	return m.report
}
