package pipeline

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/difforacle"
	"repro/internal/generator"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// Input is one test program tagged with its derivation, the pair the
// oracle needs to fix the expected compiler behaviour (Section 3).
type Input struct {
	Kind oracle.InputKind
	Prog *ir.Program
	// Report is the mutation's account of what it changed
	// (*mutation.TEMReport, *mutation.TOMReport, *mutation.REMReport);
	// nil for a base program.
	Report any
}

// Execution is the outcome of compiling one Input with one compiler,
// plus the Judge stage's verdict.
type Execution struct {
	Compiler string
	Kind     oracle.InputKind
	// Input is the index into the unit's Inputs this execution compiled,
	// so the differential Judge can group the per-compiler executions of
	// one program without relying on Kind uniqueness.
	Input   int
	Result  *compilers.Result
	Verdict oracle.Verdict
	// Inv is the harness's record of the compile: how it ended, retries
	// spent, flaky-verdict flag, captured stack on a sandboxed panic.
	Inv harness.Invocation
}

// Gap records a compile that produced no judgeable result — skipped by
// an open circuit breaker or abandoned after retries — so the campaign
// can account for the hole instead of silently shrinking.
type Gap struct {
	Compiler string
	Kind     oracle.InputKind
	Inv      harness.Invocation
}

// Unit is one schedulable work item: a seed program and everything the
// stages derive from it. Units flow through the pipeline by pointer;
// exactly one stage owns a unit at a time, so stages mutate it without
// locking.
type Unit struct {
	// Seq is the unit's position in source order; the aggregator folds
	// units in Seq order. Sources emit contiguous Seqs from 0.
	Seq int
	// Seed drives generation and mutation randomness for this unit.
	Seed int64
	// Kind is the derivation of the base program (Generated, Suite, ...).
	Kind oracle.InputKind
	// Program is the base program; nil until the Generate stage
	// materializes it for generator-backed sources.
	Program *ir.Program
	// Builtins is the type universe the program was built against,
	// needed by the mutation stage.
	Builtins *types.Builtins
	// Inputs are the programs to execute: the base program plus mutants.
	Inputs []Input
	// Execs are the per-(input, compiler) outcomes.
	Execs []Execution
	// Gaps are the compiles that yielded no result (quarantined by a
	// circuit breaker, or errored past the retry budget).
	Gaps []Gap
	// Diffs are the verdict-vector disagreements the differential Judge
	// found in this unit (compiler votes and translator conformance);
	// empty under the derivation-based oracle.
	Diffs []Diff
	// Repairs counts TEM verification-pass rollbacks in this unit.
	Repairs int
	// Stress marks a unit whose base program came from the pathological
	// stress generator. Stress programs exist to exercise the resource
	// governor; the Mutate stage skips them, because mutation's type
	// graph analysis runs unbudgeted and a pathological program would
	// stall it.
	Stress bool
	// Injected tallies the chaos faults injected into this unit's
	// compiles, drained per unit by the Execute stage so the aggregator
	// (and the campaign journal) owns injected ground truth in Seq
	// order rather than as one end-of-run global read.
	Injected map[string]harness.InjectionCounts
	// Recovered marks a unit whose results a previous run already
	// folded and journaled: it flows through the pipeline untouched —
	// preserving Seq contiguity for the aggregator's reorder buffer —
	// and every stage and the fold skip it.
	Recovered bool
}

// GeneratorSource yields n empty units seeded base, base+1, ... — one
// per program the campaign will generate. Generation itself happens in
// the Generate stage so it parallelizes across workers.
type GeneratorSource struct {
	base int64
	n    int
	next int
}

// NewGeneratorSource returns a source of n generator-backed units.
func NewGeneratorSource(base int64, n int) *GeneratorSource {
	return &GeneratorSource{base: base, n: n}
}

// Name implements Source.
func (s *GeneratorSource) Name() string { return "source" }

// Next implements Source.
func (s *GeneratorSource) Next() (*Unit, bool) {
	if s.next >= s.n {
		return nil, false
	}
	u := &Unit{Seq: s.next, Seed: s.base + int64(s.next), Kind: oracle.Generated}
	s.next++
	return u, true
}

// SkipSource wraps a Source for crash recovery: units whose Seq the
// Done predicate claims are marked Recovered and skip all stage work,
// while still flowing through so Seqs stay contiguous. Done must be
// safe to call from the source goroutine for the run's duration.
type SkipSource struct {
	Inner Source
	Done  func(seq int) bool
}

// Name implements Source.
func (s *SkipSource) Name() string { return s.Inner.Name() }

// Next implements Source.
func (s *SkipSource) Next() (*Unit, bool) {
	u, ok := s.Inner.Next()
	if ok && s.Done != nil && s.Done(u.Seq) {
		u.Recovered = true
	}
	return u, ok
}

// ProgramSource yields pre-built programs (a compiler's test suite, a
// replay corpus) as units of the given kind.
type ProgramSource struct {
	kind  oracle.InputKind
	progs []*ir.Program
	next  int
}

// NewProgramSource returns a source over the given programs.
func NewProgramSource(kind oracle.InputKind, progs []*ir.Program) *ProgramSource {
	return &ProgramSource{kind: kind, progs: progs}
}

// Name implements Source.
func (s *ProgramSource) Name() string { return "source" }

// Next implements Source.
func (s *ProgramSource) Next() (*Unit, bool) {
	if s.next >= len(s.progs) {
		return nil, false
	}
	u := &Unit{Seq: s.next, Seed: int64(s.next), Kind: s.kind, Program: s.progs[s.next]}
	s.next++
	return u, true
}

// Produced is one program a Producer materialized for a unit: the
// program, the type universe it was built against, and the derivation
// kind the oracle should judge it under.
type Produced struct {
	Kind     oracle.InputKind
	Program  *ir.Program
	Builtins *types.Builtins
}

// Producer is a pluggable program source for the Generate stage: an
// alternative way to materialize a unit's base program from its seed
// (the api-driven synthesizer today; coverage-guided seed schedulers
// are the planned next tenant). Claims must be a pure function of the
// seed — every shard, worker, and resumed run re-asks it, and they
// must all get the same answer — and Produce must be deterministic in
// the seed. Producers are consulted in order; the first claimant wins
// and the default grammar generator takes the rest.
type Producer interface {
	// Name identifies the producer in stage traces.
	Name() string
	// Claims reports whether this producer materializes the given seed.
	Claims(seed int64) bool
	// Produce builds the program for a claimed seed.
	Produce(seed int64) Produced
}

// Generate materializes each unit's base program (Section 3.2): units
// without a program ask each Producer in turn, then fall back to the
// seed-driven grammar generator; units that already carry one (corpus
// sources) pass through. Either way the base program becomes the
// unit's first Input.
type Generate struct {
	Config generator.Config
	// Producers are consulted, in order, before the default generator.
	// A producer that claims the unit's seed supplies the program, the
	// builtins, and the input kind.
	Producers []Producer
}

// Name implements Stage.
func (*Generate) Name() string { return "generate" }

// Run implements Stage. Generation of a large program is the
// pipeline's chunkiest uninterruptible step, so the stage checks for
// cancellation before starting a unit.
func (g *Generate) Run(ctx context.Context, u *Unit) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if u.Recovered {
		return nil
	}
	if u.Program == nil {
		if p := g.claimant(u.Seed); p != nil {
			out := p.Produce(u.Seed)
			u.Program = out.Program
			u.Builtins = out.Builtins
			u.Kind = out.Kind
		} else {
			gen := generator.New(g.Config.WithSeed(u.Seed))
			if g.Config.StressSeed(u.Seed) {
				u.Program = gen.GenerateStress()
				u.Stress = true
			} else {
				u.Program = gen.Generate()
			}
			u.Builtins = gen.Builtins()
		}
	}
	u.Inputs = append(u.Inputs, Input{Kind: u.Kind, Prog: u.Program})
	return nil
}

// claimant returns the first producer claiming the seed, if any.
func (g *Generate) claimant(seed int64) Producer {
	for _, p := range g.Producers {
		if p != nil && p.Claims(seed) {
			return p
		}
	}
	return nil
}

// Mutate derives mutants from the unit's base program: TEM (type
// erasure, Algorithm 2), TOM (type overwriting), TOM∘TEM (the Figure
// 7c "TEM & TOM" row), and REM (the resolution mutation). Each flag
// enables one mutant kind; derivation seeds match the historical
// campaign so results are replayable.
type Mutate struct {
	TEM    bool
	TOM    bool
	TEMTOM bool
	REM    bool
}

// Name implements Stage.
func (*Mutate) Name() string { return "mutate" }

// Mutable reports whether the Mutate stage may derive mutants from
// this unit. The kind-level half is the oracle's capability table
// (oracle.InputKind.Mutable — e.g. synthesized programs and mutants
// themselves are never re-mutated); the unit-level half is the stress
// flag, because mutation's type graph analysis runs unbudgeted and a
// pathological program would stall it whatever its kind.
func (u *Unit) Mutable() bool {
	return !u.Stress && u.Kind.Mutable()
}

// Run implements Stage. Each mutation walks the whole program, so the
// stage checks for cancellation between mutants: SIGINT aborts promptly
// even mid-unit on large programs.
func (m *Mutate) Run(ctx context.Context, u *Unit) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if u.Recovered || !u.Mutable() {
		return nil
	}
	b := u.Builtins
	if b == nil {
		b = types.NewBuiltins()
		u.Builtins = b
	}
	// TEM and then TOM run on one analysed working copy: each snapshots
	// its mutant and puts the copy back as it was.
	work := typegraph.Analyze(ir.CloneProgram(u.Program), b)
	tem, temReport := mutation.Erase(work)
	u.Repairs += temReport.RepairedMethods
	if m.TEM && temReport.Changed() {
		u.Inputs = append(u.Inputs, Input{Kind: oracle.TEMMutant, Prog: tem, Report: temReport})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.TOM {
		if tom, rep := mutation.Overwrite(work, rand.New(rand.NewSource(u.Seed))); tom != nil {
			u.Inputs = append(u.Inputs, Input{Kind: oracle.TOMMutant, Prog: tom, Report: rep})
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.TEMTOM {
		// TOM on top of TEM reaches the CombinedClass bugs.
		if temtom, rep := mutation.Overwrite(typegraph.Analyze(tem, b), rand.New(rand.NewSource(u.Seed^0x5bd1e995))); temtom != nil {
			u.Inputs = append(u.Inputs, Input{Kind: oracle.TEMTOMMutant, Prog: temtom, Report: rep})
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.REM {
		// The resolution mutation (the paper's future-work extension):
		// decoy overloads stress overload resolution while preserving
		// well-typedness.
		if rem, rep := mutation.ResolutionMutation(u.Program, b, rand.New(rand.NewSource(u.Seed^0x9e3779b9))); rem != nil {
			u.Inputs = append(u.Inputs, Input{Kind: oracle.REMMutant, Prog: rem, Report: rep})
		}
	}
	return nil
}

// Derivation is the seed→inputs recipe: the Generate stage and, when
// mutation is on, the Mutate stage. A campaign's pipeline runs these
// stage values; Derive runs the same values on one unit, so a
// re-derived input is exactly the input the campaign compiled.
type Derivation struct {
	Generate *Generate
	// Mutate is nil when the campaign does not mutate.
	Mutate *Mutate
}

// Stages returns the derivation's stages in pipeline order.
func (d *Derivation) Stages() []Stage {
	if d.Mutate == nil {
		return []Stage{d.Generate}
	}
	return []Stage{d.Generate, d.Mutate}
}

// Derive materializes the unit of one seed outside any pipeline: its
// base program and, when the unit is mutable, its mutants, in the
// order the campaign compiles them.
func (d *Derivation) Derive(seed int64) *Unit {
	u := &Unit{Seed: seed, Kind: oracle.Generated}
	for _, s := range d.Stages() {
		// The stages fail only on a cancelled context.
		_ = s.Run(context.Background(), u)
	}
	return u
}

// Execute compiles every input with every compiler under test, each
// compile running through the resilient harness (sandbox, watchdog,
// retries, circuit breaker). The compilers of one input share one
// reference check (compilers.WithSharedCheck) and differ only in the bug
// catalog each overlays. An optional Coverage selector routes probe
// events to a per-input-kind recorder (the RQ3/RQ4 experiments);
// recorders must be safe for concurrent use, as Collector is. Under a
// Coverage selector every compile runs its own check, because a compile
// that reads a shared check fires no probes.
type Execute struct {
	Compilers []*compilers.Compiler
	Coverage  func(kind oracle.InputKind) coverage.Recorder
	// Harness hardens each compile; nil means the zero harness
	// (sandboxed invocation, no watchdog/retries/breaker).
	Harness *harness.Harness
	// Targets overrides Compilers as the things to invoke — the hook
	// where a chaos wrapper (or a future subprocess-backed compiler)
	// slots in. When nil, Compilers are wrapped directly.
	Targets []harness.Target

	initOnce sync.Once
	h        *harness.Harness
	targets  []harness.Target
}

// Name implements Stage.
func (*Execute) Name() string { return "execute" }

// init resolves the harness and target list once, shared by all
// workers; chaos wrappers keep their injection counters across units
// because the same Target values are reused for every compile.
func (e *Execute) init() {
	e.initOnce.Do(func() {
		e.h = e.Harness
		if e.h == nil {
			e.h = harness.New(harness.Options{})
		}
		e.targets = e.Targets
		if e.targets == nil {
			for _, c := range e.Compilers {
				e.targets = append(e.targets, harness.WrapCompiler(c))
			}
		}
	})
}

// Run implements Stage. A compile that yields a result — including a
// sandbox-synthesized crash or watchdog timeout — becomes an Execution
// for the Judge stage; one that yields none (quarantined, errored past
// retries) is recorded as a Gap so the report can account for the hole.
func (e *Execute) Run(ctx context.Context, u *Unit) error {
	if u.Recovered {
		return nil
	}
	e.init()
	for i, in := range u.Inputs {
		var cov coverage.Recorder
		ictx := ctx
		if e.Coverage != nil {
			cov = e.Coverage(in.Kind)
		} else {
			ictx = compilers.WithSharedCheck(ctx)
		}
		for _, t := range e.targets {
			if err := ctx.Err(); err != nil {
				return err
			}
			inv := e.h.Compile(ictx, t, in.Prog, cov, harness.Key{Unit: u.Seed, Input: i})
			switch inv.Outcome {
			case harness.Aborted:
				return ctx.Err()
			case harness.Quarantined, harness.Errored:
				u.Gaps = append(u.Gaps, Gap{Compiler: t.Name(), Kind: in.Kind, Inv: inv})
			default:
				u.Execs = append(u.Execs, Execution{
					Compiler: t.Name(),
					Kind:     in.Kind,
					Input:    i,
					Result:   inv.Result,
					Inv:      inv,
				})
			}
		}
	}
	// Drain per-unit chaos injections (if any target is a chaos wrapper)
	// so the aggregator folds injected ground truth in Seq order.
	for _, t := range e.targets {
		d, ok := t.(interface {
			DrainUnit(int64) harness.InjectionCounts
		})
		if !ok {
			continue
		}
		counts := d.DrainUnit(u.Seed)
		if counts.Total() == 0 {
			continue
		}
		if u.Injected == nil {
			u.Injected = map[string]harness.InjectionCounts{}
		}
		u.Injected[t.Name()] = counts
	}
	return nil
}

// Diff records one verdict-vector disagreement the differential Judge
// found: the normalized per-compiler vector (or per-translator
// conformance vector), the suspect attribution, and the disagreeing
// pairs for the report's compiler×compiler matrix.
type Diff struct {
	// Kind is the derivation of the input whose vector split.
	Kind oracle.InputKind
	// Translators marks a translator-conformance disagreement: the
	// samples grade renderings of the three translate backends rather
	// than compiler verdicts.
	Translators bool
	// Samples is the verdict vector, in execution (target) order.
	Samples []difforacle.Sample
	// Suspects is the minority side of the vote, sorted; empty for a tie.
	Suspects []string
	// Pairs lists the disagreeing pairs, each and all sorted.
	Pairs [][2]string
}

// Judge classifies every execution against the test oracle (Figure 3's
// output checker). By default that is the derivation-based oracle; with
// Differential set it is the cross-compiler differential oracle of
// internal/difforacle instead. Judging is a separate stage exactly so
// the two oracles swap without touching execution.
type Judge struct {
	// Differential switches from derivation-fixed expectations to
	// ground-truth-free cross-compiler vote comparison: per input, the
	// per-compiler results normalize into a verdict vector, a split
	// accept/reject vote marks the minority executions with
	// oracle.Disagreement, and the three translate backends' renderings
	// of the same program are checked for verdict equivalence under one
	// shared reference check. Crash/hang/exhausted results keep their
	// status verdicts in both modes.
	Differential bool
}

// Name implements Stage.
func (Judge) Name() string { return "judge" }

// Run implements Stage.
func (j Judge) Run(_ context.Context, u *Unit) error {
	if !j.Differential {
		for i := range u.Execs {
			u.Execs[i].Verdict = oracle.Judge(u.Execs[i].Kind, u.Execs[i].Result)
		}
		return nil
	}
	// Differential mode: status outcomes (crash, hang, exhausted) are
	// bugs or findings without any vote; accept/reject becomes a vote.
	lanes := make([]difforacle.Lane, len(u.Execs))
	byInput := map[int][]int{}
	for i := range u.Execs {
		e := &u.Execs[i]
		lanes[i] = difforacle.Normalize(e.Result)
		e.Verdict = laneVerdict(lanes[i])
		byInput[e.Input] = append(byInput[e.Input], i)
	}
	for ii, in := range u.Inputs {
		idxs := byInput[ii]
		samples := make([]difforacle.Sample, 0, len(idxs))
		for _, i := range idxs {
			samples = append(samples, difforacle.Sample{
				Compiler: u.Execs[i].Compiler,
				Lane:     lanes[i],
			})
		}
		if an := difforacle.Analyze(samples); an.Disagree {
			suspect := map[string]bool{}
			for _, s := range an.Suspects {
				suspect[s] = true
			}
			for _, i := range idxs {
				if !lanes[i].Votes() {
					continue
				}
				// A decided vote marks the minority; a tie marks every
				// voting lane — someone is wrong, we cannot say who.
				if len(an.Suspects) == 0 || suspect[u.Execs[i].Compiler] {
					u.Execs[i].Verdict = oracle.Disagreement
				}
			}
			u.Diffs = append(u.Diffs, Diff{
				Kind: in.Kind, Samples: an.Samples,
				Suspects: an.Suspects, Pairs: an.Pairs,
			})
		}
		// Translator conformance rides the same oracle. The kind-level
		// gate is the oracle's capability table; stress units are also
		// skipped, because the Java backend re-runs the reference
		// checker unbudgeted and a pathological program would stall it
		// (the same reason Mutate skips stress units).
		if u.Stress || !in.Kind.ConformanceCheckable() {
			continue
		}
		if an := difforacle.AnalyzeConformance(difforacle.CheckTranslators(in.Prog)); an.Disagree {
			u.Diffs = append(u.Diffs, Diff{
				Kind: in.Kind, Translators: true, Samples: an.Samples,
				Suspects: an.Suspects, Pairs: an.Pairs,
			})
		}
	}
	return nil
}

// laneVerdict maps a normalized lane onto its derivation-independent
// verdict: crash/hang/exhausted lanes are findings in their own right,
// while accept/reject lanes stay Pass until the differential vote says
// otherwise.
func laneVerdict(l difforacle.Lane) oracle.Verdict {
	switch l {
	case difforacle.Crash:
		return oracle.CompilerCrash
	case difforacle.Hang:
		return oracle.CompilerHang
	case difforacle.Exhausted:
		return oracle.ResourceExhausted
	default:
		return oracle.Pass
	}
}
