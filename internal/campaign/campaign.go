// Package campaign orchestrates testing campaigns against the simulated
// compilers, reproducing the paper's evaluation pipeline (Figure 3):
// program generation, compilation of every program and of its TEM /
// TOM / TEM∘TOM mutants, oracle checking, bug deduplication, and
// per-figure accounting for Figures 7a, 7b, 7c and 8, plus the coverage
// experiments of Figures 9 and 10.
//
// The execution engine lives in internal/pipeline; this package is a thin
// adapter that assembles the campaign's stages (generate → mutate →
// execute → judge) and folds finished units into a Report.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/apisynth"
	"repro/internal/bugs"
	"repro/internal/compilers"
	"repro/internal/generator"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// OracleMode selects the campaign's test oracle.
type OracleMode int

const (
	// GroundTruth is the paper's derivation-based oracle: how a program
	// was built fixes the expected verdict (generated/TEM must compile,
	// TOM must be rejected).
	GroundTruth OracleMode = iota
	// Differential is the ground-truth-free cross-compiler oracle
	// (internal/difforacle): the same program compiles with every
	// compiler under test, a split accept/reject vote is a Disagreement
	// finding with majority-vote suspect attribution, and the three
	// translator backends' renderings are checked for verdict
	// equivalence.
	Differential
)

func (m OracleMode) String() string {
	switch m {
	case GroundTruth:
		return "ground-truth"
	case Differential:
		return "differential"
	default:
		return fmt.Sprintf("unknown(%d)", int(m))
	}
}

// ParseOracleMode maps the CLI/JSON spelling onto the mode; the empty
// string means the default ground-truth oracle.
func ParseOracleMode(s string) (OracleMode, error) {
	switch s {
	case "", "ground-truth":
		return GroundTruth, nil
	case "differential":
		return Differential, nil
	default:
		return 0, fmt.Errorf("campaign: unknown oracle mode %q (have ground-truth, differential)", s)
	}
}

// Options configures a campaign run.
type Options struct {
	// Seed is the base seed; program i uses Seed+i.
	Seed int64
	// Programs is the number of generated seed programs.
	Programs int
	// Workers is the number of concurrent workers per pipeline stage
	// (the paper uses Python multiprocessing; we use goroutines).
	// 0 means GOMAXPROCS.
	Workers int
	// Compilers under test; nil means all three.
	Compilers []*compilers.Compiler
	// Oracle selects the test oracle; the zero value is the paper's
	// derivation-based ground-truth oracle. Verdict-affecting, so it
	// folds into the campaign fingerprint.
	Oracle OracleMode
	// GenConfig configures the program generator.
	GenConfig generator.Config
	// Synth configures API-driven synthesis (Thalia mode): units whose
	// seeds the cadence claims are built bottom-up from API signatures
	// and judged as the Synthesized input kind. The zero value disables
	// synthesis. Verdict-affecting, so it folds into the campaign
	// fingerprint when enabled. A seed claimed by the synthesizer is
	// synthesized even when GenConfig's stress cadence also selects it.
	Synth apisynth.Config
	// Mutate enables the TEM/TOM/TEM∘TOM/REM pipeline stages.
	Mutate bool
	// Harness configures the resilient execution layer (watchdog
	// timeout, retries, circuit breakers, double-compile probe). The
	// zero value sandboxes compiles and nothing more.
	Harness harness.Options
	// Chaos, when non-nil, wraps every compiler in seeded fault
	// injection — the harness's test rig. Injected faults are audited in
	// the report's fault ledger.
	Chaos *harness.ChaosOptions
	// StateDir, when non-empty, makes the campaign durable: every
	// aggregated unit is journaled there (fsynced per record), so a
	// killed run can resume to exactly the report an uninterrupted run
	// would produce. The directory also holds the persistent bug corpus,
	// which accumulates across campaigns.
	StateDir string
	// Resume replays the journal found in StateDir before running; units
	// whose results were restored are skipped. Resuming a directory
	// whose recorded campaign fingerprint differs from these options is
	// an error. Without Resume, StateDir is reset (the corpus survives)
	// and the campaign starts fresh.
	Resume bool
	// Metrics, when set, exports live campaign instruments (unit/exec
	// throughput, per-compiler verdict counts, compile wall-time and
	// journal latency histograms, breaker states) through the registry.
	// Observation only: the report is bit-for-bit identical with or
	// without it, and it is excluded from the campaign fingerprint.
	Metrics *metrics.Registry
	// Trace, when set, receives structured events (verdicts, retries,
	// faults, breaker transitions, chaos injections). Observation only.
	Trace *metrics.Trace
	// Gate, when set, is called on the source goroutine before each new
	// unit enters the pipeline; blocking in it stalls the feed channel
	// and backpressures every bounded stage channel behind it. This is
	// the admission-control hook; the fabric's chaos kill rides it. A
	// Gate error ends the source (the run finishes early via its
	// context). Units restored by a resume are
	// not gated. Scheduling only — a Gate must not vary what the
	// campaign computes — so it is excluded from the fingerprint.
	Gate func(ctx context.Context) error
}

// DefaultOptions returns a small but representative campaign.
func DefaultOptions() Options {
	return Options{
		Programs:  200,
		GenConfig: generator.DefaultConfig(),
		Mutate:    true,
	}
}

// BugRecord tracks one distinct bug found during a campaign.
type BugRecord struct {
	Bug *bugs.Bug
	// FoundBy records which input kinds triggered the bug.
	FoundBy oracle.KindSet
	// FirstSeed is the lowest seed whose pipeline hit the bug.
	FirstSeed int64
	// Hits counts total triggerings (before deduplication).
	Hits int
}

// Technique returns the Figure 7c attribution for the record: the
// generator subsumes the mutations (a bug it finds is a generator bug);
// otherwise a bug only API-driven synthesis reached is "Synthesized",
// and a bug found by both mutations is "TEM & TOM".
func (r *BugRecord) Technique() string {
	if r.FoundBy.Has(oracle.Generated) || r.FoundBy.Has(oracle.Suite) {
		return "Generator"
	}
	if r.FoundBy.Has(oracle.Synthesized) {
		return "Synthesized"
	}
	tem := r.FoundBy.Has(oracle.TEMMutant)
	tom := r.FoundBy.Has(oracle.TOMMutant) || r.FoundBy.Has(oracle.TEMTOMMutant)
	switch {
	case tem && tom:
		return "TEM & TOM"
	case tem:
		return "TEM"
	case tom:
		return "TOM"
	case r.FoundBy.Has(oracle.REMMutant):
		return "REM"
	default:
		return "Generator"
	}
}

// DisagreementRecord tracks one distinct cross-compiler (or
// cross-translator) disagreement found by the differential oracle.
// Distinctness is by canonical verdict vector: the same split between
// the same compilers is one finding however many programs hit it,
// mirroring how BugRecord dedups by bug ID.
type DisagreementRecord struct {
	// ID is the dedup key: "xlate:" for translator-conformance findings
	// plus the canonical (name-sorted) verdict vector.
	ID string
	// Translators marks a translator-conformance disagreement.
	Translators bool
	// Vector is the canonical verdict vector, lanes sorted by name.
	Vector string
	// Suspects is the minority side of the vote, sorted; empty when the
	// vote tied (unattributed).
	Suspects []string
	// FoundBy records which input kinds hit the disagreement.
	FoundBy oracle.KindSet
	// FirstSeed is the lowest seed whose unit hit it.
	FirstSeed int64
	// Hits counts total occurrences (before deduplication).
	Hits int
}

// Report is the outcome of a campaign.
type Report struct {
	Opts Options
	// Found maps bug ID to its record.
	Found map[string]*BugRecord
	// Verdicts counts oracle outcomes per compiler and input kind.
	Verdicts map[string]map[oracle.InputKind]map[oracle.Verdict]int
	// ProgramsRun counts actual pipeline executions per input kind: a
	// mutant kind is counted only for seeds whose mutation produced a
	// mutant (TEM is skipped when nothing was erasable; TOM/REM find no
	// site in some programs).
	ProgramsRun map[oracle.InputKind]int
	// TEMRepairs counts TEM verification-pass rollbacks.
	TEMRepairs int
	// Stats holds the per-stage pipeline statistics for this run
	// (timings are wall-clock and not deterministic; all counts are).
	Stats *pipeline.Stats
	// Faults is the harness-level fault ledger: per-compiler crashes,
	// timeouts, retries, flaky verdicts, and gaps, plus the injected
	// ground truth when chaos was on. Folded in unit order, so it is
	// deterministic across worker counts.
	Faults *harness.Ledger
	// BugRate buckets units, executions, and bug triggerings by unit
	// sequence number (SeriesBucketWidth units per bucket): the
	// bug-rate-over-time series. Folded commutatively like every other
	// report field, so it survives journal replay and checkpoint/resume
	// — a resumed campaign's series continues where the killed run's
	// left off.
	BugRate map[int]*RateBucket
	// Disagreements maps a disagreement's canonical ID (source prefix +
	// sorted verdict vector) to its record; populated only by the
	// differential oracle. Folded commutatively like Found.
	Disagreements map[string]*DisagreementRecord
	// DiffMatrix counts cross-compiler verdict conflicts per unordered
	// voting pair, keyed "a|b" with the names sorted — the paper's
	// Fig. 8 version matrix generalized to a compiler×compiler (and
	// translator×translator) matrix. Every disagreement hit counts, so
	// the matrix measures conflict mass, not distinct findings.
	DiffMatrix map[string]int
	// Corpus is the cross-campaign persistent bug corpus, after this
	// run's merge; nil unless the campaign is durable (StateDir set).
	Corpus *Corpus
	// Recovery describes what a resumed run restored from its state
	// directory; the zero value for non-durable or fresh runs.
	Recovery RecoveryInfo
	// Err is the error that ended the run early (context cancellation,
	// stage failure); nil for a complete run. Callers that use Run
	// instead of RunContext read completeness from here.
	Err error
}

// Complete reports whether the campaign ran to the end: a false return
// means the report is a partial fold of whatever units finished before
// the run was cut short.
func (r *Report) Complete() bool { return r.Err == nil }

// TotalFound returns the number of distinct bugs found.
func (r *Report) TotalFound() int { return len(r.Found) }

// SeriesBucketWidth is the number of units per BugRate bucket.
const SeriesBucketWidth = 32

// RateBucket aggregates one bug-rate bucket: all fields are sums, so
// buckets fold commutatively across live units and journal replay.
type RateBucket struct {
	// Units is the number of units folded into the bucket.
	Units int
	// Execs is the number of (input, compiler) executions.
	Execs int
	// BugHits is the number of bug triggerings (before deduplication).
	BugHits int
}

// SeriesPoint is one step of the derived bug-rate series.
type SeriesPoint struct {
	// StartSeq and EndSeq bound the bucket's unit range [StartSeq, EndSeq).
	StartSeq, EndSeq int
	// Units, Execs, and BugHits restate the bucket's sums.
	Units, Execs, BugHits int
	// NewBugs is the number of distinct bugs whose first triggering seed
	// falls in this bucket.
	NewBugs int
	// CumulativeBugs is the running total of distinct bugs through this
	// bucket.
	CumulativeBugs int
}

// BugRateSeries derives the bug-rate-over-time series from the folded
// BugRate buckets and the Found map, ordered by unit sequence. The
// series is part of the deterministic report: a resumed campaign's
// series is identical to an uninterrupted run's.
func (r *Report) BugRateSeries() []SeriesPoint {
	if len(r.BugRate) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(r.BugRate))
	for i := range r.BugRate {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	// A bug's first triggering unit has seed FirstSeed = Opts.Seed + seq.
	newBugs := map[int]int{}
	for _, rec := range r.Found {
		newBugs[int(rec.FirstSeed-r.Opts.Seed)/SeriesBucketWidth]++
	}
	out := make([]SeriesPoint, 0, len(idxs))
	cum := 0
	for _, i := range idxs {
		b := r.BugRate[i]
		cum += newBugs[i]
		out = append(out, SeriesPoint{
			StartSeq: i * SeriesBucketWidth,
			EndSeq:   (i + 1) * SeriesBucketWidth,
			Units:    b.Units, Execs: b.Execs, BugHits: b.BugHits,
			NewBugs:        newBugs[i],
			CumulativeBugs: cum,
		})
	}
	return out
}

// Run executes the campaign and returns its report. Runs are
// deterministic for fixed options, regardless of worker count. A run
// cut short (cancellation, stage failure) is not silently complete: the
// report carries the error in Err and Complete() returns false.
//
// Run is a shim over the lifecycle API: New + Start + Wait.
func Run(opts Options) *Report {
	report, _ := RunContext(context.Background(), opts)
	return report
}

// RunContext executes the campaign under a context. On cancellation it
// returns promptly with the context's error and the (partial) report
// aggregated so far; a nil error means the report is complete and
// deterministic for the options, regardless of worker count.
//
// RunContext is a shim over the lifecycle API: New + Start + Wait.
func RunContext(ctx context.Context, opts Options) (*Report, error) {
	c := New(opts)
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	return c.Wait()
}

// run executes one segment of the campaign, from the first unit no
// earlier segment folded until completion or ctx cancellation. A
// resuming segment (Options.Resume, which Pause sets) replays the
// journal first and skips restored units, so every segment folds
// exactly the units no earlier segment did.
func (c *Campaign) run(ctx context.Context) error {
	opts := c.opts
	report := newReport(opts)
	agg := &reportAggregator{
		report:   report,
		bugIndex: bugIndexFor(opts.Compilers),
		obs:      newObserver(opts.Metrics, opts.Trace),
		mu:       &c.fold,
	}

	derive, err := NewDerivation(opts)
	if err != nil {
		report.Err = err
		c.publish(report, nil)
		return err
	}
	stages := derive.Stages()

	// The execution layer: every compiler behind the resilient harness,
	// optionally behind chaos fault injection first. Observability rides
	// along on the harness options; it is stripped from the campaign
	// fingerprint, so a durable run can resume with it toggled.
	hopts := opts.Harness
	hopts.Metrics = opts.Metrics
	hopts.Trace = opts.Trace
	h := harness.New(hopts)
	var targets []harness.Target
	if opts.Chaos != nil {
		for _, comp := range opts.Compilers {
			targets = append(targets, harness.NewChaos(*opts.Chaos, harness.WrapCompiler(comp)).WithTrace(opts.Trace))
		}
	}
	stages = append(stages,
		&pipeline.Execute{Compilers: opts.Compilers, Harness: h, Targets: targets},
		pipeline.Judge{Differential: opts.Oracle == Differential})

	// Durable state: replay the journal before the pipeline starts, skip
	// restored units, journal the rest.
	state, err := openState(opts, report, agg, h)
	if err != nil {
		report.Err = err
		c.publish(report, nil)
		return err
	}
	// Fold restored state into the live instruments so a resumed run's
	// metrics continue from where the killed run's left off.
	agg.obs.prime(report)
	c.publish(report, h)

	p := &pipeline.Pipeline{
		Source:     pipeline.NewGeneratorSource(opts.Seed, opts.Programs),
		Stages:     stages,
		Aggregator: agg,
		Workers:    opts.Workers,
		Label:      "campaign",
		Metrics:    opts.Metrics,
	}
	if state != nil {
		p.Source = &pipeline.SkipSource{Inner: p.Source, Done: state.isDone}
		p.AfterAggregate = func(u *pipeline.Unit) error {
			c.fold.Lock()
			defer c.fold.Unlock()
			return state.afterUnit(agg, u)
		}
	}
	if opts.Gate != nil {
		p.Source = &gatedSource{inner: p.Source, ctx: ctx, gate: opts.Gate}
	}

	stats, err := p.Run(ctx)
	c.fold.Lock()
	defer c.fold.Unlock()
	report.Stats = stats
	if state != nil {
		if ferr := state.finish(report, err == nil); ferr != nil && err == nil {
			err = ferr
		}
	}
	report.Err = err
	return err
}

// newReport returns an empty report for the options, with every folded
// map initialized — the one constructor the live run and the fabric
// merger share, so the two paths cannot drift on what a report holds.
func newReport(opts Options) *Report {
	return &Report{
		Opts:          opts,
		Found:         map[string]*BugRecord{},
		Verdicts:      map[string]map[oracle.InputKind]map[oracle.Verdict]int{},
		ProgramsRun:   map[oracle.InputKind]int{},
		BugRate:       map[int]*RateBucket{},
		Disagreements: map[string]*DisagreementRecord{},
		DiffMatrix:    map[string]int{},
		Faults:        harness.NewLedger(),
	}
}

// reportAggregator folds finished pipeline units into a Report. The
// pipeline calls Aggregate in Seq (= seed) order; the fold itself is
// commutative (FirstSeed is a min-update, everything else sums or
// unions), so journal replay can fold the same records in any order and
// reach the same report. Live units and replayed records share one fold
// path — recordOf projects the unit, fold consumes the record — so a
// resumed run is bit-for-bit the uninterrupted one.
type reportAggregator struct {
	report   *Report
	bugIndex map[string]*bugs.Bug
	// obs mirrors live folds into the metrics registry and event trace;
	// nil when the campaign is unobserved. Restored state is primed
	// separately, so obs sees only units folded by this process.
	obs *observer
	// last is the record for the most recently folded unit, stashed for
	// the journaling hook that runs next on the same goroutine.
	last *unitRecord
	// mu, when set, is the campaign's fold lock: Aggregate takes its
	// write side so Status readers see the report only between units.
	mu *sync.RWMutex
}

// Name implements pipeline.Aggregator.
func (a *reportAggregator) Name() string { return "aggregate" }

// Aggregate implements pipeline.Aggregator.
func (a *reportAggregator) Aggregate(u *pipeline.Unit) {
	if a.mu != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	a.last = nil
	if u.Recovered {
		return // folded by a previous run; restored before the pipeline started
	}
	rec := recordOf(u)
	a.last = rec
	a.fold(rec)
	a.obs.observeUnit(rec, len(a.report.Found))
}

// fold applies one unit record to the report.
func (a *reportAggregator) fold(rec *unitRecord) {
	r := a.report
	r.TEMRepairs += rec.Repairs
	for _, k := range rec.Inputs {
		r.ProgramsRun[k]++
	}
	rate := r.BugRate[rec.Seq/SeriesBucketWidth]
	if rate == nil {
		rate = &RateBucket{}
		r.BugRate[rec.Seq/SeriesBucketWidth] = rate
	}
	rate.Units++
	rate.Execs += len(rec.Execs)
	for _, e := range rec.Execs {
		rate.BugHits += len(e.Bugs)
	}
	for _, g := range rec.Gaps {
		r.Faults.Observe(g.Compiler, harness.Invocation{Outcome: g.Outcome, Attempts: g.Attempts, Flaky: g.Flaky})
	}
	for _, e := range rec.Execs {
		r.Faults.Observe(e.Compiler, harness.Invocation{Outcome: e.Outcome, Attempts: e.Attempts, Flaky: e.Flaky})
		perComp := r.Verdicts[e.Compiler]
		if perComp == nil {
			perComp = map[oracle.InputKind]map[oracle.Verdict]int{}
			r.Verdicts[e.Compiler] = perComp
		}
		perKind := perComp[e.Kind]
		if perKind == nil {
			perKind = map[oracle.Verdict]int{}
			perComp[e.Kind] = perKind
		}
		perKind[e.Verdict]++
		for _, id := range e.Bugs {
			bug := a.bugIndex[id]
			if bug == nil {
				continue // catalog drift; the record outlived the bug
			}
			brec := r.Found[id]
			if brec == nil {
				brec = &BugRecord{Bug: bug, FirstSeed: rec.Seed}
				r.Found[id] = brec
			} else if rec.Seed < brec.FirstSeed {
				brec.FirstSeed = rec.Seed
			}
			brec.FoundBy.Add(e.Kind)
			brec.Hits++
		}
	}
	for name, counts := range rec.Injected {
		r.Faults.AddInjected(name, counts)
	}
	for i := range rec.Diffs {
		d := &rec.Diffs[i]
		for _, p := range d.Pairs {
			r.DiffMatrix[p[0]+"|"+p[1]]++
		}
		id := d.id()
		drec := r.Disagreements[id]
		if drec == nil {
			drec = &DisagreementRecord{
				ID: id, Translators: d.Xlate, Vector: d.vector(),
				Suspects:  append([]string(nil), d.Sus...),
				FirstSeed: rec.Seed,
			}
			r.Disagreements[id] = drec
		} else if rec.Seed < drec.FirstSeed {
			drec.FirstSeed = rec.Seed
		}
		drec.FoundBy.Add(d.Kind)
		drec.Hits++
	}
}
