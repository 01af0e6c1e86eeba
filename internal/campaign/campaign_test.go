package campaign

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/generator"
	"repro/internal/oracle"
)

func smallOptions(programs int) Options {
	return Options{
		Programs:  programs,
		GenConfig: generator.DefaultConfig(),
		Mutate:    true,
		Compilers: []*compilers.Compiler{compilers.Groovyc()},
	}
}

func TestCampaignRunFindsBugs(t *testing.T) {
	report := Run(smallOptions(60))
	if report.TotalFound() == 0 {
		t.Fatal("campaign found no bugs")
	}
	// All found bugs belong to the compiler under test.
	for id, rec := range report.Found {
		if rec.Bug.Compiler != "groovyc" {
			t.Errorf("%s: wrong compiler %s", id, rec.Bug.Compiler)
		}
		if rec.Hits == 0 || len(rec.FoundBy.Kinds()) == 0 {
			t.Errorf("%s: empty record", id)
		}
	}
	// Every generated program runs; mutant kinds count actual
	// executions, so they are bounded by the seed count and nonzero for
	// a campaign this size.
	if report.ProgramsRun[oracle.Generated] != 60 {
		t.Errorf("generated programs run = %d, want 60", report.ProgramsRun[oracle.Generated])
	}
	for _, kind := range []oracle.InputKind{oracle.TEMMutant, oracle.TOMMutant, oracle.TEMTOMMutant} {
		if n := report.ProgramsRun[kind]; n == 0 || n > 60 {
			t.Errorf("%s: programs run = %d, want in (0, 60]", kind, n)
		}
	}
	// ProgramsRun must agree with the verdicts actually recorded.
	for kind, n := range report.ProgramsRun {
		judged := 0
		for _, v := range report.Verdicts["groovyc"][kind] {
			judged += v
		}
		if judged != n {
			t.Errorf("%s: ProgramsRun=%d but %d verdicts recorded", kind, n, judged)
		}
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	o1 := smallOptions(25)
	o1.Workers = 1
	o2 := smallOptions(25)
	o2.Workers = 8
	r1 := Run(o1)
	r2 := Run(o2)
	// The determinism contract: everything in the report except Opts
	// and wall-clock Stats is bit-for-bit identical across worker
	// counts — including per-record hit counts and first seeds.
	if !reflect.DeepEqual(r1.Found, r2.Found) {
		t.Errorf("Found differs between 1 and 8 workers:\n%+v\nvs\n%+v", r1.Found, r2.Found)
	}
	if !reflect.DeepEqual(r1.Verdicts, r2.Verdicts) {
		t.Errorf("Verdicts differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(r1.ProgramsRun, r2.ProgramsRun) {
		t.Errorf("ProgramsRun differs: %v vs %v", r1.ProgramsRun, r2.ProgramsRun)
	}
	if r1.TEMRepairs != r2.TEMRepairs {
		t.Errorf("TEMRepairs differs: %d vs %d", r1.TEMRepairs, r2.TEMRepairs)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := smallOptions(100000) // far more work than the deadline allows
	opts.Workers = 4
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var report *Report
	var err error
	go func() {
		report, err = RunContext(ctx, opts)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled campaign did not stop: pipeline deadlock")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if report == nil {
		t.Fatal("cancelled campaign should still return the partial report")
	}
	if report.ProgramsRun[oracle.Generated] >= opts.Programs {
		t.Errorf("cancelled campaign aggregated all %d programs", opts.Programs)
	}
}

func TestRunSurfacesIncompleteness(t *testing.T) {
	// A run cut short must say so: Run (which has no error return) still
	// carries the pipeline error in the report.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := RunContext(ctx, smallOptions(50))
	if err == nil {
		t.Fatal("cancelled RunContext returned nil error")
	}
	if report.Err == nil || report.Complete() {
		t.Errorf("partial report not marked incomplete: Err=%v Complete=%v", report.Err, report.Complete())
	}
	if !errors.Is(report.Err, context.Canceled) {
		t.Errorf("report.Err = %v, want context.Canceled", report.Err)
	}

	complete := Run(smallOptions(5))
	if !complete.Complete() || complete.Err != nil {
		t.Errorf("complete run marked incomplete: Err=%v", complete.Err)
	}
}

func TestTechniqueAttribution(t *testing.T) {
	report := Run(smallOptions(80))
	sawTEM, sawTOM, sawGen := false, false, false
	for _, rec := range report.Found {
		switch rec.Technique() {
		case "TEM":
			sawTEM = true
			// TEM mutants are well-typed, so they can only reveal
			// inference-class bugs or (occasionally) generator-class
			// bugs their parent's signature missed — never soundness.
			if rec.Bug.Class == bugs.SoundnessClass || rec.Bug.Class == bugs.CombinedClass {
				t.Errorf("%s attributed to TEM but class is %s", rec.Bug.ID, rec.Bug.Class)
			}
		case "TOM":
			sawTOM = true
			if rec.Bug.Class == bugs.InferenceClass {
				t.Errorf("%s attributed to TOM but class is %s", rec.Bug.ID, rec.Bug.Class)
			}
		case "Generator":
			sawGen = true
		}
		// Inference bugs can never be attributed to the generator: its
		// programs are fully annotated.
		if rec.Bug.Class == bugs.InferenceClass && rec.Technique() == "Generator" {
			t.Errorf("%s: inference bug attributed to the generator", rec.Bug.ID)
		}
	}
	if !sawGen || !sawTEM || !sawTOM {
		t.Errorf("expected all three attributions, got gen=%v tem=%v tom=%v", sawGen, sawTEM, sawTOM)
	}
}

func TestFigureTablesRender(t *testing.T) {
	report := Run(smallOptions(40))
	f7a := report.Figure7a().String()
	if !strings.Contains(f7a, "groovyc") || !strings.Contains(f7a, "Fixed") {
		t.Errorf("figure 7a malformed:\n%s", f7a)
	}
	f7b := report.Figure7b().String()
	if !strings.Contains(f7b, "UCTE") || !strings.Contains(f7b, "Crash") {
		t.Errorf("figure 7b malformed:\n%s", f7b)
	}
	f7c := report.Figure7c().String()
	if !strings.Contains(f7c, "TEM & TOM") {
		t.Errorf("figure 7c malformed:\n%s", f7c)
	}
	f8 := report.Figure8(map[string]int{"groovyc": 16, "kotlinc": 13, "javac": 10}).String()
	if !strings.Contains(f8, "master only") || !strings.Contains(f8, "[1-3]") {
		t.Errorf("figure 8 malformed:\n%s", f8)
	}
	if vs := report.VerdictSummary().String(); !strings.Contains(vs, "generator") {
		t.Errorf("verdict summary malformed:\n%s", vs)
	}
}

func TestCatalogTablesMatchPaper(t *testing.T) {
	a, b, c := CatalogTables()
	sa := a.String()
	// Spot-check the paper's exact numbers.
	if !strings.Contains(sa, "113") || !strings.Contains(sa, "156") || !strings.Contains(sa, "85") {
		t.Errorf("figure 7a ground truth should contain 113/156/85:\n%s", sa)
	}
	sb := b.String()
	if !strings.Contains(sb, "104") || !strings.Contains(sb, "30") {
		t.Errorf("figure 7b ground truth should contain 104/30:\n%s", sb)
	}
	sc := c.String()
	if !strings.Contains(sc, "78") || !strings.Contains(sc, "52") || !strings.Contains(sc, "24") {
		t.Errorf("figure 7c ground truth should contain 78/52/24:\n%s", sc)
	}
}

func TestMutationCoverageExperiment(t *testing.T) {
	rows, _, err := RunMutationCoverageContext(context.Background(), []*compilers.Compiler{compilers.Kotlinc()}, 25, 0, generator.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cov := rows[0]
	if cov.Compiler != "kotlinc" {
		t.Errorf("compiler = %s", cov.Compiler)
	}
	// RQ3's central claim: TEM exercises checker paths the generator does
	// not (the inference probes).
	if cov.TEMDelta.Lines+cov.TEMDelta.Funcs+cov.TEMDelta.Branches == 0 {
		t.Error("TEM should cover additional probe sites")
	}
	// And the additional coverage concentrates in inference/resolution
	// regions.
	inferExtra := 0
	for region, d := range cov.TEMByRegion {
		if strings.Contains(region, "inference") || strings.Contains(region, "resolve") {
			inferExtra += d.Lines + d.Funcs + d.Branches
		}
	}
	if inferExtra == 0 {
		t.Errorf("TEM extra coverage should hit inference regions, got %+v", cov.TEMByRegion)
	}
	if !strings.Contains(cov.String(), "TEM change") {
		t.Errorf("report rendering:\n%s", cov)
	}
}

// TestRegionRowsSorted: the per-region rows of the coverage figures
// print in region order, skipping regions with nothing new.
func TestRegionRowsSorted(t *testing.T) {
	got := (&SynthCoverage{Compiler: "kotlinc", SynthByRegion: map[string]coverage.Delta{
		"types.subtyping":          {Lines: 2},
		"resolve.calls.inference":  {Lines: 9, Funcs: 1, Branches: 10},
		"comp.Attr":                {},
		"stc.StaticTypeChecking":   {Branches: 1},
		"code.generator.generated": {Funcs: 3},
	}}).String()
	want := "" +
		"  Synth code.generator.generated   +0 lines, +3 functions, +0 branches\n" +
		"  Synth resolve.calls.inference    +9 lines, +1 functions, +10 branches\n" +
		"  Synth stc.StaticTypeChecking     +0 lines, +0 functions, +1 branches\n" +
		"  Synth types.subtyping            +2 lines, +0 functions, +0 branches\n"
	if !strings.HasSuffix(got, want) {
		t.Errorf("region rows:\n%s\nwant suffix:\n%s", got, want)
	}
}

func TestSuiteCoverageExperiment(t *testing.T) {
	rows, _, err := RunSuiteCoverageContext(context.Background(), []*compilers.Compiler{compilers.Javac()}, 40, 500, generator.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows for one compiler", len(rows))
	}
	cov := rows[0]
	// RQ4's claim: the suite already covers almost everything; random
	// programs add a small increment.
	if cov.SuiteLine <= 50 {
		t.Errorf("suite line coverage suspiciously low: %.2f%%", cov.SuiteLine)
	}
	if cov.BothLine != 100 {
		t.Errorf("union coverage should be 100%% of its own universe, got %.2f", cov.BothLine)
	}
	if cov.LineChange() < 0 || cov.LineChange() > 30 {
		t.Errorf("line change out of plausible range: %+.2f", cov.LineChange())
	}
	if !strings.Contains(cov.String(), "% change") {
		t.Errorf("report rendering:\n%s", cov)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "1"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "xxx") || !strings.Contains(s, "---") {
		t.Errorf("table rendering:\n%s", s)
	}
}

func TestREMStageRunsInCampaign(t *testing.T) {
	report := Run(smallOptions(30))
	if n := report.ProgramsRun[oracle.REMMutant]; n == 0 || n > 30 {
		t.Errorf("REM executions = %d, want in (0, 30]", n)
	}
	// REM mutants are well-typed: they must never produce URB verdicts.
	for comp, perKind := range report.Verdicts {
		if v := perKind[oracle.REMMutant]; v != nil {
			if v[oracle.UnexpectedAcceptance] != 0 {
				t.Errorf("%s: REM mutants produced URB verdicts", comp)
			}
		}
	}
}

// TestCompilerCatalogsSharedAndUnmodified checks that the bug catalogs are
// built once per process and that a full campaign leaves them exactly as
// bugs.Build makes them.
func TestCompilerCatalogsSharedAndUnmodified(t *testing.T) {
	first, second := compilers.All(), compilers.All()
	for i := range first {
		if &first[i].Catalog()[0] != &second[i].Catalog()[0] {
			t.Errorf("%s: All() rebuilt the catalog", first[i].Name())
		}
	}
	opts := smallOptions(40)
	opts.Compilers = first
	if r := Run(opts); !r.Complete() {
		t.Fatal("campaign did not complete")
	}
	specs := map[string]bugs.CatalogSpec{
		"groovyc": bugs.GroovycSpec(), "kotlinc": bugs.KotlincSpec(), "javac": bugs.JavacSpec(),
	}
	for _, c := range compilers.All() {
		if !reflect.DeepEqual(c.Catalog(), bugs.Build(specs[c.Name()])) {
			t.Errorf("%s: catalog differs from a fresh bugs.Build after a campaign", c.Name())
		}
	}
}
