// Durable campaigns: the adapter between the campaign's fold and the
// journal package's crash-safe storage. A durable run journals one
// record per aggregated unit (written on the aggregator goroutine, in
// Seq order, fsynced per record), and resuming replays every record
// through the live fold, so a run killed at any instant resumes to
// exactly the report an uninterrupted run would have produced. The
// fold itself is commutative — FirstSeed is a min-update, every other
// field a sum or set union — so journal records can replay in any
// order, which is what lets a corrupt record be quarantined mid-stream
// and its unit re-run.

package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/bugs"
	"repro/internal/compilers"
	"repro/internal/difforacle"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

const (
	metaDoc   = "meta.json"
	corpusDoc = "corpus.json"
)

// execRecord is one (input, compiler) outcome in a journaled unit:
// exactly the fields the fold consumes, nothing the pipeline could
// recompute. Keys are short — a campaign writes one record per unit for
// months.
type execRecord struct {
	Compiler string           `json:"c"`
	Kind     oracle.InputKind `json:"k"`
	Verdict  oracle.Verdict   `json:"v"`
	Outcome  harness.Outcome  `json:"o"`
	Attempts int              `json:"a"`
	Flaky    bool             `json:"f,omitempty"`
	// Bugs lists triggered bug IDs; the fold resolves them against the
	// compiler catalogs, so records stay valid across process restarts.
	Bugs []string `json:"b,omitempty"`
}

// gapRecord is one compile that produced no judgeable result.
type gapRecord struct {
	Compiler string           `json:"c"`
	Kind     oracle.InputKind `json:"k"`
	Outcome  harness.Outcome  `json:"o"`
	Attempts int              `json:"a"`
	Flaky    bool             `json:"f,omitempty"`
}

// laneRecord is one compiler's (or translator's) normalized lane in a
// journaled disagreement.
type laneRecord struct {
	Compiler string          `json:"c"`
	Lane     difforacle.Lane `json:"l"`
}

// diffRecord is one differential-oracle disagreement in a journaled
// unit: the verdict vector plus the attribution the fold consumes.
type diffRecord struct {
	Kind  oracle.InputKind `json:"k"`
	Xlate bool             `json:"t,omitempty"`
	Vec   []laneRecord     `json:"v"`
	Sus   []string         `json:"s,omitempty"`
	Pairs [][2]string      `json:"p,omitempty"`
}

// vector renders the record's canonical verdict vector.
func (d *diffRecord) vector() string {
	samples := make([]difforacle.Sample, len(d.Vec))
	for i, l := range d.Vec {
		samples[i] = difforacle.Sample{Compiler: l.Compiler, Lane: l.Lane}
	}
	return difforacle.VectorString(samples)
}

// id is the disagreement's dedup key: translator findings are
// namespaced so a compiler vector and a translator vector over the
// same names never collide.
func (d *diffRecord) id() string {
	if d.Xlate {
		return "xlate:" + d.vector()
	}
	return d.vector()
}

// unitRecord is the journal schema: everything the fold needs from one
// finished pipeline unit. Both the live aggregator and journal replay
// fold through this type, so a replayed unit is bit-for-bit equivalent
// to a live one.
type unitRecord struct {
	Seq      int                                `json:"seq"`
	Seed     int64                              `json:"seed"`
	Repairs  int                                `json:"r,omitempty"`
	Inputs   []oracle.InputKind                 `json:"in,omitempty"`
	Execs    []execRecord                       `json:"x,omitempty"`
	Gaps     []gapRecord                        `json:"g,omitempty"`
	Diffs    []diffRecord                       `json:"d,omitempty"`
	Injected map[string]harness.InjectionCounts `json:"inj,omitempty"`
}

// recordOf projects a finished pipeline unit onto the journal schema.
func recordOf(u *pipeline.Unit) *unitRecord {
	rec := &unitRecord{Seq: u.Seq, Seed: u.Seed, Repairs: u.Repairs, Injected: u.Injected}
	for _, in := range u.Inputs {
		rec.Inputs = append(rec.Inputs, in.Kind)
	}
	for _, g := range u.Gaps {
		rec.Gaps = append(rec.Gaps, gapRecord{
			Compiler: g.Compiler, Kind: g.Kind,
			Outcome: g.Inv.Outcome, Attempts: g.Inv.Attempts, Flaky: g.Inv.Flaky,
		})
	}
	for _, e := range u.Execs {
		er := execRecord{
			Compiler: e.Compiler, Kind: e.Kind, Verdict: e.Verdict,
			Outcome: e.Inv.Outcome, Attempts: e.Inv.Attempts, Flaky: e.Inv.Flaky,
		}
		if e.Result != nil {
			for _, b := range e.Result.Triggered {
				er.Bugs = append(er.Bugs, b.ID)
			}
		}
		rec.Execs = append(rec.Execs, er)
	}
	for _, d := range u.Diffs {
		dr := diffRecord{Kind: d.Kind, Xlate: d.Translators, Sus: d.Suspects, Pairs: d.Pairs}
		for _, s := range d.Samples {
			dr.Vec = append(dr.Vec, laneRecord{Compiler: s.Compiler, Lane: s.Lane})
		}
		rec.Diffs = append(rec.Diffs, dr)
	}
	return rec
}

// metaState is the meta.json side document: which campaign owns the
// state directory's journal, and whether its bugs merged into the
// corpus already (so resuming a finished campaign is idempotent).
type metaState struct {
	Fingerprint string `json:"fingerprint"`
	Merged      bool   `json:"merged"`
}

// CorpusEntry is one distinct bug in the cross-campaign corpus.
type CorpusEntry struct {
	Compiler  string             `json:"compiler"`
	FirstSeed int64              `json:"first_seed"`
	Hits      int                `json:"hits"`
	Campaigns int                `json:"campaigns"`
	FoundBy   []oracle.InputKind `json:"found_by"`
}

// Corpus is the persistent bug-dedup corpus: every distinct bug any
// campaign run against this state directory has found. It survives
// Reset — separate campaigns accumulate into it. The campaign server
// keeps one Corpus across every hosted campaign the same way.
type Corpus struct {
	Campaigns int                     `json:"campaigns"`
	Bugs      map[string]*CorpusEntry `json:"bugs"`
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{Bugs: map[string]*CorpusEntry{}}
}

// MergeReport folds one completed campaign's found bugs into the
// corpus. The fold is a union — FirstSeed min-updates, hits and
// campaign counts sum — so merge order across campaigns does not
// matter.
func (c *Corpus) MergeReport(report *Report) {
	c.Campaigns++
	if c.Bugs == nil {
		c.Bugs = map[string]*CorpusEntry{}
	}
	for id, rec := range report.Found {
		e := c.Bugs[id]
		if e == nil {
			e = &CorpusEntry{Compiler: rec.Bug.Compiler, FirstSeed: rec.FirstSeed}
			c.Bugs[id] = e
		} else if rec.FirstSeed < e.FirstSeed {
			e.FirstSeed = rec.FirstSeed
		}
		e.Hits += rec.Hits
		e.Campaigns++
		e.FoundBy = unionKinds(e.FoundBy, rec.FoundBy)
	}
	// Differential-oracle findings accumulate under a "diff:" key prefix
	// so they never collide with catalog bug IDs; the entry's compiler
	// column carries the suspect attribution.
	for id, rec := range report.Disagreements {
		key := "diff:" + id
		e := c.Bugs[key]
		if e == nil {
			e = &CorpusEntry{Compiler: suspectLabel(rec.Suspects), FirstSeed: rec.FirstSeed}
			c.Bugs[key] = e
		} else if rec.FirstSeed < e.FirstSeed {
			e.FirstSeed = rec.FirstSeed
		}
		e.Hits += rec.Hits
		e.Campaigns++
		e.FoundBy = unionKinds(e.FoundBy, rec.FoundBy)
	}
}

// suspectLabel renders a disagreement's suspect set for corpus and
// report tables: the sorted suspects joined, or "unattributed" for a
// tied vote.
func suspectLabel(suspects []string) string {
	if len(suspects) == 0 {
		return "unattributed"
	}
	return strings.Join(suspects, "+")
}

// RecoveryInfo describes what a resumed run restored from disk.
type RecoveryInfo struct {
	// Resumed is true when the run restored prior state.
	Resumed bool
	// Recovered counts units the pipeline skipped because their journal
	// records were replayed (duplicates counted once).
	Recovered int
	// Quarantined lists corrupt journal stretches that were skipped;
	// their units simply re-ran.
	Quarantined []journal.Corruption
}

// fingerprint hashes the campaign-defining options: everything that
// changes what the deterministic run computes, and nothing that only
// changes how it is scheduled (worker count). Resuming
// with a different fingerprint is refused — the journal would describe
// a different campaign.
func fingerprint(opts Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d programs=%d mutate=%v", opts.Seed, opts.Programs, opts.Mutate)
	if opts.Oracle != GroundTruth {
		// Appended only for non-default oracles so pre-existing
		// ground-truth state directories keep their fingerprints.
		fmt.Fprintf(h, " oracle=%d", int(opts.Oracle))
	}
	if opts.Synth.Enabled() {
		// Appended only when synthesis is on, for the same backward
		// compatibility: generator-only state directories keep their
		// fingerprints. Cadence and corpus are both verdict-affecting.
		fmt.Fprintf(h, " synth=%+v", opts.Synth)
	}
	// Observability is not campaign-defining: a resumed run may toggle
	// metrics without changing what the campaign computes.
	hopts := opts.Harness
	hopts.Metrics, hopts.Trace = nil, nil
	// Hash the effective (clamped) generator config: an out-of-range
	// value and the minimum it clamps to run the same campaign, so
	// they must share a fingerprint no matter which form the caller
	// wrote down.
	fmt.Fprintf(h, " gen=%+v harness=%+v", opts.GenConfig.Normalized(), hopts)
	if opts.Chaos != nil {
		fmt.Fprintf(h, " chaos=%+v", *opts.Chaos)
	}
	for _, c := range opts.Compilers {
		fmt.Fprintf(h, " compiler=%s", c.Name())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// durableState wires one campaign run to its state directory.
type durableState struct {
	store *journal.Store
	w     *journal.Writer
	fp    string

	// appendNs and syncNs time journal writes. Unregistered no-ops when
	// the campaign is unobserved.
	appendNs *metrics.Histogram
	syncNs   *metrics.Histogram
	// done marks seqs whose folds were restored; read-only once the
	// pipeline starts (the SkipSource reads it from the source
	// goroutine).
	done map[int]bool
}

// openState opens (or creates) the campaign's durable state and, when
// resuming, replays the journal into the report before the pipeline
// starts. Returns nil when the campaign is not durable (no StateDir).
func openState(opts Options, report *Report, agg *reportAggregator, h *harness.Harness) (*durableState, error) {
	if opts.StateDir == "" {
		return nil, nil
	}
	st, meta, err := openStore(opts)
	if err != nil {
		return nil, err
	}
	switch {
	case !opts.Resume:
		// Fresh campaign: drop any previous journal (the corpus document
		// deliberately survives) and claim the directory.
		if err := st.store.Reset(); err != nil {
			return nil, err
		}
		if err := writeMeta(st.store, metaState{Fingerprint: st.fp}); err != nil {
			return nil, err
		}
	case meta != nil && meta.Fingerprint != st.fp:
		return nil, fmt.Errorf("campaign: state dir %s holds a different campaign (fingerprint %s, want %s); rerun without -resume to start over",
			st.store.Dir(), meta.Fingerprint, st.fp)
	case meta == nil:
		// Resume requested but the directory is empty: behave as a fresh
		// start so `-state X -resume` is safe to use unconditionally.
		if err := writeMeta(st.store, metaState{Fingerprint: st.fp}); err != nil {
			return nil, err
		}
	default:
		if err := st.restore(report, agg, h); err != nil {
			return nil, err
		}
	}

	w, err := st.store.Append(0)
	if err != nil {
		return nil, err
	}
	st.w = w
	return st, nil
}

// peekState replays the journal of a resumable campaign's state directory
// into report and h without claiming the directory. It reports false, and
// replays nothing, when the directory holds no journal of this campaign.
func peekState(opts Options, report *Report, agg *reportAggregator, h *harness.Harness) bool {
	st, meta, err := openStore(opts)
	return err == nil && meta != nil && meta.Fingerprint == st.fp && st.restore(report, agg, h) == nil
}

// openStore opens the state directory and reads its meta document; meta
// is nil when the directory holds none.
func openStore(opts Options) (st *durableState, meta *metaState, err error) {
	store, err := journal.Open(opts.StateDir)
	if err != nil {
		return nil, nil, err
	}
	store.SetObserver(CorruptionObserver(opts.Metrics, opts.Trace))
	st = &durableState{
		store:    store,
		fp:       fingerprint(opts),
		done:     map[int]bool{},
		appendNs: opts.Metrics.Histogram("campaign.journal.append_ns"),
		syncNs:   opts.Metrics.Histogram("campaign.journal.sync_ns"),
	}
	raw, err := store.ReadDoc(metaDoc)
	if err != nil || raw == nil {
		return st, nil, err
	}
	meta = &metaState{}
	if err := json.Unmarshal(raw, meta); err != nil {
		return nil, nil, fmt.Errorf("campaign: corrupt %s: %w", metaDoc, err)
	}
	return st, meta, nil
}

// restore replays the journal into the report through the live fold.
// Corrupt journal records are quarantined (their units re-run); a torn
// final record is expected after a kill and truncates replay cleanly.
//
// Replay also re-derives the circuit breakers' positions: each record's
// compiles are fed back to h's breakers as the Allow/Record calls the
// live run made. At Workers=1 this is the exact live call sequence up
// to the last journaled unit, so a breaker resumes where an
// uninterrupted run would have it even after a kill mid-unit.
func (st *durableState) restore(report *Report, agg *reportAggregator, h *harness.Harness) error {
	report.Recovery.Resumed = true
	quarantined, err := st.store.Replay(func(off int64, payload []byte) error {
		var rec unitRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The frame checksum passed but the payload is not our
			// schema; quarantine it like a corrupt record.
			quarantined := journal.Corruption{Offset: off, Reason: fmt.Sprintf("undecodable record: %v", err)}
			report.Recovery.Quarantined = append(report.Recovery.Quarantined, quarantined)
			return nil
		}
		if st.done[rec.Seq] {
			return nil // a duplicate
		}
		agg.fold(&rec)
		replayBreakers(h, &rec)
		st.done[rec.Seq] = true
		return nil
	})
	if err != nil {
		return err
	}
	report.Recovery.Quarantined = append(report.Recovery.Quarantined, quarantined...)
	report.Recovery.Recovered = len(st.done)
	return nil
}

// replayBreakers feeds one journaled unit's compiles to h's breakers in
// the order the Execute stage made them: input by input (kinds are
// unique within a unit), each admitted compile recording whether it
// completed. Breakers are per compiler, so the order among compilers of
// one input does not matter.
func replayBreakers(h *harness.Harness, rec *unitRecord) {
	call := func(compiler string, outcome harness.Outcome) {
		br := h.Breaker(compiler)
		br.Allow()
		if outcome != harness.Quarantined {
			br.Record(outcome == harness.Completed)
		}
	}
	for _, kind := range rec.Inputs {
		for _, e := range rec.Execs {
			if e.Kind == kind {
				call(e.Compiler, e.Outcome)
			}
		}
		for _, g := range rec.Gaps {
			if g.Kind == kind {
				call(g.Compiler, g.Outcome)
			}
		}
	}
}

// isDone is the SkipSource predicate: true for units whose fold was
// restored, which then flow through the pipeline as Recovered.
func (st *durableState) isDone(seq int) bool { return st.done[seq] }

// afterUnit is the pipeline's AfterAggregate hook: journal the unit the
// aggregator just folded. Runs on the aggregator goroutine, in Seq
// order — the journal can never get ahead of or behind the fold.
func (st *durableState) afterUnit(agg *reportAggregator, u *pipeline.Unit) error {
	if u.Recovered {
		return nil
	}
	rec := agg.last
	if rec == nil || rec.Seq != u.Seq {
		return fmt.Errorf("campaign: journal out of step with fold at seq %d", u.Seq)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := st.w.Append(payload); err != nil {
		return err
	}
	st.appendNs.ObserveDuration(time.Since(t0))
	return nil
}

// finish closes out a durable run: sync and close the journal (on
// SIGTERM/SIGINT-style aborts too, so the partial run is durable), and
// on a complete run merge the found bugs into the persistent corpus —
// once, however many times the campaign is resumed after finishing.
func (st *durableState) finish(report *Report, complete bool) error {
	t0 := time.Now()
	syncErr := st.w.Sync()
	st.syncNs.ObserveDuration(time.Since(t0))
	closeErr := st.w.Close()

	corpus, corpusErr := loadCorpus(st.store)
	if corpusErr == nil && complete {
		corpusErr = st.mergeCorpus(corpus, report)
	}
	report.Corpus = corpus

	for _, err := range []error{syncErr, closeErr, corpusErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeCorpus folds the report's found bugs into the corpus document,
// guarded by the meta Merged flag so a re-resumed finished campaign
// does not double-count.
func (st *durableState) mergeCorpus(corpus *Corpus, report *Report) error {
	raw, err := st.store.ReadDoc(metaDoc)
	if err != nil {
		return err
	}
	var meta metaState
	if raw != nil {
		if err := json.Unmarshal(raw, &meta); err != nil {
			return fmt.Errorf("campaign: corrupt %s: %w", metaDoc, err)
		}
	}
	if meta.Merged {
		return nil
	}
	corpus.MergeReport(report)
	payload, err := json.Marshal(corpus)
	if err != nil {
		return err
	}
	if err := st.store.WriteDoc(corpusDoc, payload); err != nil {
		return err
	}
	meta.Fingerprint = st.fp
	meta.Merged = true
	return writeMeta(st.store, meta)
}

// loadCorpus reads the persistent corpus, returning an empty one when
// the document does not exist yet.
func loadCorpus(store *journal.Store) (*Corpus, error) {
	corpus := &Corpus{Bugs: map[string]*CorpusEntry{}}
	raw, err := store.ReadDoc(corpusDoc)
	if err != nil {
		return corpus, err
	}
	if raw != nil {
		if err := json.Unmarshal(raw, corpus); err != nil {
			return corpus, fmt.Errorf("campaign: corrupt %s: %w", corpusDoc, err)
		}
		if corpus.Bugs == nil {
			corpus.Bugs = map[string]*CorpusEntry{}
		}
	}
	return corpus, nil
}

func writeMeta(store *journal.Store, meta metaState) error {
	payload, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	return store.WriteDoc(metaDoc, payload)
}

// unionKinds merges a FoundBy set into a sorted kind list.
func unionKinds(have []oracle.InputKind, add oracle.KindSet) []oracle.InputKind {
	for _, k := range have {
		add.Add(k)
	}
	return add.Kinds()
}

// bugIndexFor maps bug ID to its catalog entry across the compilers
// under test; the fold resolves journaled IDs here.
func bugIndexFor(comps []*compilers.Compiler) map[string]*bugs.Bug {
	idx := map[string]*bugs.Bug{}
	for _, c := range comps {
		for _, b := range c.Catalog() {
			idx[b.ID] = b
		}
	}
	return idx
}
