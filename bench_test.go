// Package repro_test benchmarks the reproduction end to end: one
// benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// per-experiment index), component benchmarks for every pipeline stage,
// and ablation benchmarks for the design choices the paper motivates.
//
// Figures are reproduced with campaign sizes scaled down to benchmark
// time; custom metrics report the quantities the paper's tables hold
// (bugs found per technique, coverage deltas, histogram mass). Run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured comparison produced by
// cmd/campaign at full scale.
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/bugs"
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/compilers"
	"repro/internal/corpus"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/reduce"
	"repro/internal/translate"
	"repro/internal/types"
)

// campaignForBench runs a small campaign (distinct seeds per iteration so
// the work is not memoized by determinism).
func campaignForBench(i int, programs int) *campaign.Report {
	return campaign.Run(campaign.Options{
		Seed:      int64(i) * 10_000,
		Programs:  programs,
		GenConfig: generator.DefaultConfig(),
		Mutate:    true,
	})
}

// BenchmarkFig7aBugStatus reproduces Figure 7a: a campaign's found-bug
// status table. Reported metric: distinct bugs found per campaign.
func BenchmarkFig7aBugStatus(b *testing.B) {
	var found int
	for i := 0; i < b.N; i++ {
		report := campaignForBench(i, 20)
		_ = report.Figure7a().String()
		found += report.TotalFound()
	}
	b.ReportMetric(float64(found)/float64(b.N), "bugs/campaign")
}

// BenchmarkFig7bSymptoms reproduces Figure 7b: symptom distribution of
// found bugs. Metrics: UCTE/URB/crash counts per campaign.
func BenchmarkFig7bSymptoms(b *testing.B) {
	var ucte, urb, crash int
	for i := 0; i < b.N; i++ {
		report := campaignForBench(i, 20)
		_ = report.Figure7b().String()
		for _, rec := range report.Found {
			switch rec.Bug.Symptom {
			case bugs.UCTE:
				ucte++
			case bugs.URB:
				urb++
			case bugs.Crash:
				crash++
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(ucte)/n, "UCTE/campaign")
	b.ReportMetric(float64(urb)/n, "URB/campaign")
	b.ReportMetric(float64(crash)/n, "crash/campaign")
}

// BenchmarkFig7cTechniques reproduces Figure 7c: bugs per technique. The
// paper's shape — the generator leads, TEM finds inference bugs the
// generator cannot, TOM finds soundness bugs — is reported as metrics.
func BenchmarkFig7cTechniques(b *testing.B) {
	counts := map[string]int{}
	for i := 0; i < b.N; i++ {
		report := campaignForBench(i, 20)
		_ = report.Figure7c().String()
		for _, rec := range report.Found {
			counts[rec.Technique()]++
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(counts["Generator"])/n, "generator/campaign")
	b.ReportMetric(float64(counts["TEM"])/n, "TEM/campaign")
	b.ReportMetric(float64(counts["TOM"])/n, "TOM/campaign")
}

// BenchmarkFig8AffectedVersions reproduces Figure 8: the histogram of
// found bugs over affected stable versions, including the master-only bar
// (recent regressions).
func BenchmarkFig8AffectedVersions(b *testing.B) {
	stable := map[string]int{}
	for _, c := range compilers.All() {
		stable[c.Name()] = len(c.Versions())
	}
	var masterOnly, allVersions int
	for i := 0; i < b.N; i++ {
		report := campaignForBench(i, 20)
		_ = report.Figure8(stable).String()
		for _, rec := range report.Found {
			n := rec.Bug.AffectedStableCount(stable[rec.Bug.Compiler])
			switch {
			case n == 0:
				masterOnly++
			case n == stable[rec.Bug.Compiler]:
				allVersions++
			}
		}
	}
	b.ReportMetric(float64(masterOnly)/float64(b.N), "master-only/campaign")
	b.ReportMetric(float64(allVersions)/float64(b.N), "all-versions/campaign")
}

// BenchmarkFig9MutationCoverage reproduces Figure 9 (RQ3): the additional
// checker coverage TEM and TOM mutants bring over the generator baseline.
// The paper's shape to verify: TEM > TOM > 0, concentrated in
// inference/resolution regions.
func BenchmarkFig9MutationCoverage(b *testing.B) {
	var temBranches, tomBranches int
	for i := 0; i < b.N; i++ {
		rows, _, err := campaign.RunMutationCoverageContext(context.Background(), []*compilers.Compiler{compilers.Kotlinc()}, 15, int64(i)*999, generator.DefaultConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		cov := rows[0]
		temBranches += cov.TEMDelta.Branches
		tomBranches += cov.TOMDelta.Branches
	}
	b.ReportMetric(float64(temBranches)/float64(b.N), "TEM-extra-branches")
	b.ReportMetric(float64(tomBranches)/float64(b.N), "TOM-extra-branches")
}

// BenchmarkFig10SuiteCoverage reproduces Figure 10 (RQ4): the test suite
// plus random programs barely moves coverage even though random programs
// find many bugs.
func BenchmarkFig10SuiteCoverage(b *testing.B) {
	var change float64
	for i := 0; i < b.N; i++ {
		rows, _, err := campaign.RunSuiteCoverageContext(context.Background(), []*compilers.Compiler{compilers.Javac()}, 30, int64(i)*777, generator.DefaultConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		change += rows[0].LineChange()
	}
	b.ReportMetric(change/float64(b.N), "line-pct-change")
}

// BenchmarkBatchCompilation measures the Section 3.5 batching pipeline:
// generating and compiling a batch of packaged programs.
func BenchmarkBatchCompilation(b *testing.B) { benchkit.BatchCompilation(b) }

// BenchmarkExecuteInput measures one input's Execute stage: the program
// compiled by all three compilers through the default harness.
func BenchmarkExecuteInput(b *testing.B) { benchkit.ExecuteInput(b) }

// BenchmarkTEMCombinationSearch measures Algorithm 2's maximal-set
// enumeration, whose worst case is exponential but is tamed by the
// preservation filter (the paper's complexity remark).
func BenchmarkTEMCombinationSearch(b *testing.B) {
	gens := make([]*ir.Program, 8)
	bt := types.NewBuiltins()
	for i := range gens {
		gens[i] = generator.New(generator.DefaultConfig().WithSeed(int64(i))).Generate()
	}
	b.ResetTimer()
	var tried int
	for i := 0; i < b.N; i++ {
		_, report := mutation.TypeErasure(gens[i%len(gens)], bt)
		tried += report.CombinationsTried
	}
	b.ReportMetric(float64(tried)/float64(b.N), "combination-checks")
}

// ----- component benchmarks -----
//
// Bodies live in internal/benchkit so cmd/bench can run the same tier
// programmatically and diff BENCH_*.json files across commits.

// BenchmarkGeneration measures raw program generation throughput.
func BenchmarkGeneration(b *testing.B) { benchkit.Generation(b) }

// BenchmarkTypeCheck measures the reference checker on generated programs.
func BenchmarkTypeCheck(b *testing.B) { benchkit.TypeCheck(b) }

// BenchmarkTypeGraph measures type-graph construction for all methods of
// a program (the analysis underlying both mutations).
func BenchmarkTypeGraph(b *testing.B) { benchkit.TypeGraph(b) }

// BenchmarkTEM measures the full type erasure mutation.
func BenchmarkTEM(b *testing.B) { benchkit.TEM(b) }

// BenchmarkTOM measures the full type overwriting mutation.
func BenchmarkTOM(b *testing.B) { benchkit.TOM(b) }

// BenchmarkTranslate measures each language translator.
func BenchmarkTranslate(b *testing.B) {
	for _, tr := range translate.All() {
		b.Run(tr.Name(), benchkit.TranslateLang(tr))
	}
}

// BenchmarkUnify measures type unification on hierarchy-related
// parameterized types (Definition 3.2).
func BenchmarkUnify(b *testing.B) { benchkit.Unify(b) }

// BenchmarkSubtype measures the subtyping relation on nested generics
// across a genuine hierarchy climb (the earlier reflexive-only version
// lives on as BenchmarkSubtypeReflexive).
func BenchmarkSubtype(b *testing.B) { benchkit.Subtype(b) }

// BenchmarkSubtypeReflexive measures the reflexive fast path.
func BenchmarkSubtypeReflexive(b *testing.B) { benchkit.SubtypeReflexive(b) }

// ----- ablation benchmarks (design choices called out in DESIGN.md) -----

// BenchmarkAblationGraphGuidedVsNaiveErasure compares TEM's type-graph
// guidance against naive random erasure: the fraction of mutants that stay
// well-typed. Graph-guided TEM is 100% by construction; naive erasure
// breaks a large share of programs, wasting campaign budget and corrupting
// the oracle.
func BenchmarkAblationGraphGuidedVsNaiveErasure(b *testing.B) {
	bt := types.NewBuiltins()
	var naiveOK, naiveTotal int
	for i := 0; i < b.N; i++ {
		g := generator.New(generator.DefaultConfig().WithSeed(int64(i)))
		p := g.Generate()
		// Naive: erase every var annotation and every instantiation.
		naive := ir.CloneProgram(p)
		ir.Walk(naive, func(n ir.Node) bool {
			switch t := n.(type) {
			case *ir.VarDecl:
				t.DeclType = nil
			case *ir.New:
				t.TypeArgs = nil
			}
			return true
		})
		naiveTotal++
		if checker.Check(naive, bt, checker.Options{}).OK() {
			naiveOK++
		}
	}
	b.ReportMetric(float64(naiveOK)/float64(naiveTotal)*100, "naive-still-well-typed-%")
}

// BenchmarkAblationTOMWithoutRelevance measures how often a blind random
// type replacement fails to create a type error (making the URB oracle
// unsound), versus TOM's relevance-guided replacement which never does.
func BenchmarkAblationTOMWithoutRelevance(b *testing.B) {
	bt := types.NewBuiltins()
	var blindStillOK, blindTotal int
	for i := 0; i < b.N; i++ {
		g := generator.New(generator.DefaultConfig().WithSeed(int64(i)))
		p := g.Generate()
		rng := rand.New(rand.NewSource(int64(i)))
		// Blind: replace the first var decl's type with a random builtin.
		blind := ir.CloneProgram(p)
		replaced := false
		ir.Walk(blind, func(n ir.Node) bool {
			if replaced {
				return false
			}
			if v, ok := n.(*ir.VarDecl); ok && v.DeclType != nil {
				all := bt.All()
				v.DeclType = all[rng.Intn(len(all))]
				replaced = true
			}
			return true
		})
		if replaced {
			blindTotal++
			if checker.Check(blind, bt, checker.Options{}).OK() {
				blindStillOK++
			}
		}
	}
	if blindTotal > 0 {
		b.ReportMetric(float64(blindStillOK)/float64(blindTotal)*100, "blind-still-well-typed-%")
	}
}

// BenchmarkAblationFeatureYield measures bug yield with parametric
// polymorphism disabled — finding F4's claim that generics drive typing
// bugs predicts a sharp drop.
func BenchmarkAblationFeatureYield(b *testing.B) {
	for _, mode := range []struct {
		name     string
		generics bool
	}{{"generics-on", true}, {"generics-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var found int
			for i := 0; i < b.N; i++ {
				cfg := generator.DefaultConfig()
				cfg.ParametricPolymorphism = mode.generics
				cfg.BoundedPolymorphism = mode.generics
				report := campaign.Run(campaign.Options{
					Seed:      int64(i) * 333,
					Programs:  15,
					GenConfig: cfg,
					Compilers: []*compilers.Compiler{compilers.Groovyc()},
					Mutate:    true,
				})
				found += report.TotalFound()
			}
			b.ReportMetric(float64(found)/float64(b.N), "bugs/campaign")
		})
	}
}

// BenchmarkSuiteCompilation measures compiling a compiler's whole test
// suite (the Figure 10 baseline workload).
func BenchmarkSuiteCompilation(b *testing.B) {
	comp := compilers.Javac()
	suite := corpus.TestSuite(comp.Name())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range suite {
			comp.Compile(p, nil)
		}
	}
}

// BenchmarkREM measures the resolution mutation (the future-work
// extension): decoy-overload injection with checker verification.
func BenchmarkREM(b *testing.B) {
	progs := make([]*ir.Program, 8)
	for i := range progs {
		progs[i] = generator.New(generator.DefaultConfig().WithSeed(int64(i))).Generate()
	}
	bt := types.NewBuiltins()
	b.ResetTimer()
	applied := 0
	for i := 0; i < b.N; i++ {
		if m, _ := mutation.ResolutionMutation(progs[i%len(progs)], bt, rand.New(rand.NewSource(int64(i)))); m != nil {
			applied++
		}
	}
	b.ReportMetric(float64(applied)/float64(b.N)*100, "applied-%")
}

// BenchmarkReduction measures the delta-debugging reducer on a
// bug-triggering program.
func BenchmarkReduction(b *testing.B) {
	comp := compilers.Groovyc()
	var prog *ir.Program
	var bugID string
	for seed := int64(0); seed < 200 && prog == nil; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		if res := comp.Compile(p, nil); len(res.Triggered) > 0 {
			prog, bugID = p, res.Triggered[0].ID
		}
	}
	if prog == nil {
		b.Skip("no trigger found")
	}
	keep := func(q *ir.Program) bool {
		res := comp.Compile(q, nil)
		for _, bg := range res.Triggered {
			if bg.ID == bugID {
				return true
			}
		}
		return false
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduce.Reduce(prog, keep)
	}
}
