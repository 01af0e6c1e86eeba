package campaign

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/apisynth"
	"repro/internal/compilers"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// MutationCoverage is one compiler's row of the Figure 9 experiment: coverage
// of N generated programs, and the additional distinct probe sites their
// TEM and TOM mutants exercise, with the per-region breakdown the paper
// highlights (resolve.*, types.*, stc.*, comp.*, code.*).
type MutationCoverage struct {
	Compiler string
	Programs int
	// Generator coverage as percentages of the experiment's universe.
	GenLine, GenFunc, GenBranch float64
	// TEM/TOM additional distinct sites over the generator baseline.
	TEMDelta, TOMDelta coverage.Delta
	// ByRegion maps the compiler's package name to TEM's extra sites
	// there.
	TEMByRegion map[string]coverage.Delta
}

// String renders the report in the shape of Figure 9's rows.
func (m *MutationCoverage) String() string {
	s := fmt.Sprintf("%s (over %d programs)\n", m.Compiler, m.Programs)
	s += fmt.Sprintf("  Generator   %6.2f %% line, %6.2f %% function, %6.2f %% branch (of experiment universe)\n",
		m.GenLine, m.GenFunc, m.GenBranch)
	s += fmt.Sprintf("  TEM change  +%d lines, +%d functions, +%d branches\n",
		m.TEMDelta.Lines, m.TEMDelta.Funcs, m.TEMDelta.Branches)
	s += fmt.Sprintf("  TOM change  +%d lines, +%d functions, +%d branches\n",
		m.TOMDelta.Lines, m.TOMDelta.Funcs, m.TOMDelta.Branches)
	return s + regionRows("TEM", m.TEMByRegion)
}

// regionRows renders the nonzero per-region rows in region order: map
// order would make the figure's stdout differ from run to run.
func regionRows(label string, byRegion map[string]coverage.Delta) string {
	regions := make([]string, 0, len(byRegion))
	for region := range byRegion {
		regions = append(regions, region)
	}
	sort.Strings(regions)
	out := ""
	for _, region := range regions {
		d := byRegion[region]
		if d.Lines+d.Funcs+d.Branches == 0 {
			continue
		}
		out += fmt.Sprintf("  %-32s +%d lines, +%d functions, +%d branches\n",
			label+" "+region, d.Lines, d.Funcs, d.Branches)
	}
	return out
}

// RunMutationCoverageContext performs the RQ3 experiment (Figure 9):
// generate programs, produce one TEM and one TOM mutant per program,
// and measure the coverage increase each mutation brings over the
// generator baseline. The compilers share one reference checker, whose
// probes fire identically under each, so the experiment measures once
// and returns one row per compiler, its regions named by that compiler's
// packages, and the per-stage statistics of the one run; cs must not be
// empty. workers is the per-stage worker count (0 means GOMAXPROCS); the
// reported quantities are distinct-site counts, so they are
// deterministic regardless of worker interleaving.
func RunMutationCoverageContext(ctx context.Context, cs []*compilers.Compiler, programs int, seed int64, cfg generator.Config, workers int) ([]*MutationCoverage, *pipeline.Stats, error) {
	covGen := coverage.NewCollector()
	covTEM := coverage.NewCollector()
	covTOM := coverage.NewCollector()
	byKind := map[oracle.InputKind]coverage.Recorder{
		oracle.Generated: covGen,
		oracle.TEMMutant: covTEM,
		oracle.TOMMutant: covTOM,
	}
	stats, err := runCoverage(ctx, []coveragePass{{
		label:  "generate+mutate",
		mutate: &pipeline.Mutate{TEM: true, TOM: true},
		record: func(kind oracle.InputKind) coverage.Recorder { return byKind[kind] },
	}}, cs[0], programs, seed, cfg, workers)
	if err != nil {
		return nil, nil, err
	}

	universe := covGen.Clone()
	universe.Merge(covTEM)
	universe.Merge(covTOM)
	rows := make([]*MutationCoverage, len(cs))
	for i, c := range cs {
		rows[i] = &MutationCoverage{
			Compiler:    c.Name(),
			Programs:    programs,
			TEMDelta:    covTEM.NewSites(covGen),
			TOMDelta:    covTOM.NewSites(covGen),
			TEMByRegion: regionsFor(c, covTEM, covGen),
		}
		rows[i].GenLine, rows[i].GenFunc, rows[i].GenBranch = covGen.Percent(universe)
	}
	return rows, stats, nil
}

// regionsFor maps each region's extra sites of cov over base to c's
// package name for the region.
func regionsFor(c *compilers.Compiler, cov, base *coverage.Collector) map[string]coverage.Delta {
	out := map[string]coverage.Delta{}
	for _, region := range cov.Regions() {
		out[c.PackageFor(region)] = cov.NewSitesIn(base, region)
	}
	return out
}

// SynthCoverage is one compiler's row of the three-way input-kind
// comparison extending RQ3/RQ4 to API-driven synthesis: coverage of N generated programs, the
// additional distinct probe sites their TEM+TOM mutants reach, and the
// additional sites N synthesized programs (same seeds, same budget)
// reach — with synthesis's extra sites broken down by region, since the
// point of walking API signatures is to land in the resolution and
// inference paths.
type SynthCoverage struct {
	Compiler string
	Programs int
	// Generator coverage as percentages of the experiment's universe.
	GenLine, GenFunc, GenBranch float64
	// MutDelta is the TEM+TOM mutants' additional distinct sites over
	// the generator baseline; SynthDelta the synthesized programs'.
	MutDelta, SynthDelta coverage.Delta
	// SynthByRegion maps the compiler's package names to synthesis's
	// extra sites there.
	SynthByRegion map[string]coverage.Delta
}

// String renders the three-way comparison, one row per input kind.
func (s *SynthCoverage) String() string {
	out := fmt.Sprintf("%s (over %d programs per kind)\n", s.Compiler, s.Programs)
	out += fmt.Sprintf("  Generator     %6.2f %% line, %6.2f %% function, %6.2f %% branch (of experiment universe)\n",
		s.GenLine, s.GenFunc, s.GenBranch)
	out += fmt.Sprintf("  Mutants change +%d lines, +%d functions, +%d branches\n",
		s.MutDelta.Lines, s.MutDelta.Funcs, s.MutDelta.Branches)
	out += fmt.Sprintf("  Synth change   +%d lines, +%d functions, +%d branches\n",
		s.SynthDelta.Lines, s.SynthDelta.Funcs, s.SynthDelta.Branches)
	return out + regionRows("Synth", s.SynthByRegion)
}

// RunSynthCoverageContext performs the three-way generated vs mutated
// vs synthesized coverage experiment with cancellation and an explicit
// worker count. Two passes over the same seed range: one generates and
// mutates, one synthesizes every unit from the API corpus (synth.Corpus;
// the built-in default when empty). Like Figure 9 it measures once and
// returns one row per compiler and the per-stage statistics of both
// passes. Distinct-site counts are deterministic regardless of worker
// interleaving.
func RunSynthCoverageContext(ctx context.Context, cs []*compilers.Compiler, programs int, seed int64, cfg generator.Config, synth apisynth.Config, workers int) ([]*SynthCoverage, *pipeline.Stats, error) {
	// Cadence is forced to every-unit: the experiment compares N
	// synthesized programs against N generated ones, whatever cadence
	// the fuzzing campaign itself would use.
	prod, err := newSynthProducer(apisynth.Config{Every: 1, Corpus: synth.Corpus})
	if err != nil {
		return nil, nil, err
	}
	covGen := coverage.NewCollector()
	covMut := coverage.NewCollector()
	covSynth := coverage.NewCollector()
	byKind := map[oracle.InputKind]coverage.Recorder{
		oracle.Generated: covGen,
		oracle.TEMMutant: covMut,
		oracle.TOMMutant: covMut,
	}
	stats, err := runCoverage(ctx, []coveragePass{{
		label:  "generate+mutate",
		mutate: &pipeline.Mutate{TEM: true, TOM: true},
		record: func(kind oracle.InputKind) coverage.Recorder { return byKind[kind] },
	}, {
		label:     "synthesize",
		producers: []pipeline.Producer{prod},
		record:    func(oracle.InputKind) coverage.Recorder { return covSynth },
	}}, cs[0], programs, seed, cfg, workers)
	if err != nil {
		return nil, nil, err
	}

	universe := covGen.Clone()
	universe.Merge(covMut)
	universe.Merge(covSynth)
	rows := make([]*SynthCoverage, len(cs))
	for i, c := range cs {
		rows[i] = &SynthCoverage{
			Compiler:      c.Name(),
			Programs:      programs,
			MutDelta:      covMut.NewSites(covGen),
			SynthDelta:    covSynth.NewSites(covGen),
			SynthByRegion: regionsFor(c, covSynth, covGen),
		}
		rows[i].GenLine, rows[i].GenFunc, rows[i].GenBranch = covGen.Percent(universe)
	}
	return rows, stats, nil
}

// SuiteCoverage is the Figure 10 experiment for one compiler: the
// compiler's own test suite's coverage versus the suite plus N random
// programs — the paper's point being that the increment is negligible
// even though the random programs find many bugs.
type SuiteCoverage struct {
	Compiler string
	Random   int
	// Percentages relative to the union universe.
	SuiteLine, SuiteFunc, SuiteBranch float64
	BothLine, BothFunc, BothBranch    float64
}

// LineChange returns the percentage-point increment random programs add.
func (s *SuiteCoverage) LineChange() float64 { return s.BothLine - s.SuiteLine }

// FuncChange returns the function-coverage increment.
func (s *SuiteCoverage) FuncChange() float64 { return s.BothFunc - s.SuiteFunc }

// BranchChange returns the branch-coverage increment.
func (s *SuiteCoverage) BranchChange() float64 { return s.BothBranch - s.SuiteBranch }

// String renders the Figure 10 row.
func (s *SuiteCoverage) String() string {
	return fmt.Sprintf(
		"%s\n  test suite           %6.2f %% line, %6.2f %% function, %6.2f %% branch\n"+
			"  test suite & random  %6.2f %% line, %6.2f %% function, %6.2f %% branch\n"+
			"  %% change             %+6.2f %%      %+6.2f %%        %+6.2f %%\n",
		s.Compiler, s.SuiteLine, s.SuiteFunc, s.SuiteBranch,
		s.BothLine, s.BothFunc, s.BothBranch,
		s.LineChange(), s.FuncChange(), s.BranchChange())
}

// RunSuiteCoverageContext performs the RQ4 experiment (Figure 10) with
// cancellation and an explicit per-stage worker count: one pass per
// compiler replays that compiler's test suite, and one pass streams the
// random programs on top. Probes come from the reference checker every
// compiler shares, so every pass compiles with the first compiler and
// the random programs are measured once; cs must not be empty. It
// returns one row per compiler and the per-stage statistics of every
// pass, each under its own run scope.
func RunSuiteCoverageContext(ctx context.Context, cs []*compilers.Compiler, random int, seed int64, cfg generator.Config, workers int) ([]*SuiteCoverage, *pipeline.Stats, error) {
	suites := make([]*coverage.Collector, len(cs))
	passes := make([]coveragePass, 0, len(cs)+1)
	for i, c := range cs {
		cov := coverage.NewCollector()
		suites[i] = cov
		passes = append(passes, coveragePass{
			label:  "suite-" + c.Name(),
			suite:  corpus.TestSuite(c.Name()),
			record: func(oracle.InputKind) coverage.Recorder { return cov },
		})
	}
	covRandom := coverage.NewCollector()
	passes = append(passes, coveragePass{
		label:  "random",
		record: func(oracle.InputKind) coverage.Recorder { return covRandom },
	})
	stats, err := runCoverage(ctx, passes, cs[0], random, seed, cfg, workers)
	if err != nil {
		return nil, nil, err
	}

	rows := make([]*SuiteCoverage, len(cs))
	for i, c := range cs {
		covBoth := suites[i].Clone()
		covBoth.Merge(covRandom)
		rows[i] = &SuiteCoverage{Compiler: c.Name(), Random: random}
		rows[i].SuiteLine, rows[i].SuiteFunc, rows[i].SuiteBranch = suites[i].Percent(covBoth)
		rows[i].BothLine, rows[i].BothFunc, rows[i].BothBranch = covBoth.Percent(covBoth)
	}
	return rows, stats, nil
}

// coveragePass is one pipeline run of a coverage experiment: its
// source (the experiment's seed range, or a fixed program list), the
// producers and mutations that derive each unit's inputs, and the
// recorder each input kind's probe events go to.
type coveragePass struct {
	label string
	// suite, when non-nil, replaces the seed range as the source.
	suite     []*ir.Program
	producers []pipeline.Producer
	// mutate is nil for a pass that compiles base programs only.
	mutate *pipeline.Mutate
	record func(oracle.InputKind) coverage.Recorder
}

// runCoverage runs a coverage experiment's passes in order over the
// seed range [seed, seed+programs) against compiler c, each pass under
// its own labelled scope of one shared Stats, and returns those
// statistics. Coverage accumulates as a side effect of the compiles, so
// the passes fold nothing.
func runCoverage(ctx context.Context, passes []coveragePass, c *compilers.Compiler, programs int, seed int64, cfg generator.Config, workers int) (*pipeline.Stats, error) {
	stats := pipeline.NewStats()
	for _, pass := range passes {
		var src pipeline.Source = pipeline.NewGeneratorSource(seed, programs)
		if pass.suite != nil {
			src = pipeline.NewProgramSource(oracle.Suite, pass.suite)
		}
		derive := pipeline.Derivation{
			Generate: &pipeline.Generate{Config: cfg, Producers: pass.producers},
			Mutate:   pass.mutate,
		}
		pl := &pipeline.Pipeline{
			Source: src,
			Stages: append(derive.Stages(),
				&pipeline.Execute{Compilers: []*compilers.Compiler{c}, Coverage: pass.record},
				pipeline.Judge{}),
			Aggregator: pipeline.Discard{},
			Workers:    workers,
			Stats:      stats,
			Label:      pass.label,
		}
		if _, err := pl.Run(ctx); err != nil {
			return nil, err
		}
	}
	return stats, nil
}
