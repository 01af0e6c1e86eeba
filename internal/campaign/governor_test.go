package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/generator"
	"repro/internal/oracle"
)

// governorOptions configures a small campaign with a fuel budget and the
// pathological stress generator on a cadence that rotates through every
// stress shape (Every=4 with Seed 0 stresses seeds 3, 7, 11, ... whose
// shape selector seed%3 cycles).
func governorOptions(programs int) Options {
	o := smallOptions(programs)
	o.Harness.Fuel = 30000
	o.GenConfig.Stress = generator.StressConfig{Every: 4, ChainLength: 12}
	return o
}

// exhaustedCount sums ResourceExhausted verdicts across the report.
func exhaustedCount(r *Report) int {
	n := 0
	for _, perKind := range r.Verdicts {
		for _, perVerdict := range perKind {
			n += perVerdict[oracle.ResourceExhausted]
		}
	}
	return n
}

// TestCampaignDeterministicUnderFuelExhaustion is the governor's
// end-to-end determinism contract: with stress units exhausting the fuel
// budget, the report is bit-for-bit identical at 1 and 8 workers, because
// the steps a guarded walk charges depend only on the program under check.
func TestCampaignDeterministicUnderFuelExhaustion(t *testing.T) {
	run := func(workers int) *Report {
		o := governorOptions(24)
		o.Workers = workers
		return Run(o)
	}

	baseline := run(1)
	if baseline.Err != nil {
		t.Fatalf("baseline campaign failed: %v", baseline.Err)
	}
	if n := exhaustedCount(baseline); n == 0 {
		t.Fatal("no ResourceExhausted verdicts; the stress units never exhausted the budget")
	}

	got := run(8)
	if got.Err != nil {
		t.Fatalf("8-worker campaign failed: %v", got.Err)
	}
	if !reflect.DeepEqual(baseline.Found, got.Found) {
		t.Error("8 workers: Found differs from baseline")
	}
	if !reflect.DeepEqual(baseline.Verdicts, got.Verdicts) {
		t.Error("8 workers: Verdicts differ from baseline")
	}
	if !reflect.DeepEqual(baseline.ProgramsRun, got.ProgramsRun) {
		t.Errorf("8 workers: ProgramsRun %v, baseline %v", got.ProgramsRun, baseline.ProgramsRun)
	}
}

// TestStressUnitsSkipMutation pins the pipeline guard: stress programs
// produce no mutant executions (mutation's type-graph analysis runs
// unbudgeted and must never see a pathological program), while regular
// units still mutate.
func TestStressUnitsSkipMutation(t *testing.T) {
	r := Run(governorOptions(24))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.ProgramsRun[oracle.Generated] != 24 {
		t.Errorf("generated programs run = %d, want 24", r.ProgramsRun[oracle.Generated])
	}
	// 6 of 24 units are stress units; mutants can only come from the
	// other 18.
	for _, kind := range []oracle.InputKind{oracle.TEMMutant, oracle.TOMMutant, oracle.TEMTOMMutant} {
		if n := r.ProgramsRun[kind]; n > 18 {
			t.Errorf("%s: %d mutants from 18 mutable units", kind, n)
		}
	}
}

// TestDurableResumeRejectsDifferentFuelBudget is the journal-coherence
// guard: fuel is verdict-affecting, so a state directory recorded under
// one budget must refuse to resume under another — replayed folds would
// mix exhaustion points from two different campaigns.
func TestDurableResumeRejectsDifferentFuelBudget(t *testing.T) {
	dir := t.TempDir()
	o := governorOptions(8)
	o.StateDir = dir
	if r := Run(o); r.Err != nil {
		t.Fatal(r.Err)
	}
	cases := map[string]Options{
		"different fuel":           governorOptions(8),
		"different max depth":      governorOptions(8),
		"different stress cadence": governorOptions(8),
	}
	c := cases["different fuel"]
	c.Harness.Fuel = 99999
	cases["different fuel"] = c
	c = cases["different max depth"]
	c.Harness.MaxDepth = 64
	cases["different max depth"] = c
	c = cases["different stress cadence"]
	c.GenConfig.Stress.Every = 5
	cases["different stress cadence"] = c
	for name, other := range cases {
		other.StateDir = dir
		other.Resume = true
		r, err := RunContext(context.Background(), other)
		if err == nil || r.Err == nil {
			t.Errorf("%s: resume under a mismatched governor config succeeded", name)
		}
	}
	// Sanity: the unchanged config does resume.
	same := governorOptions(8)
	same.StateDir = dir
	same.Resume = true
	if r := Run(same); r.Err != nil {
		t.Errorf("resume with identical governor config failed: %v", r.Err)
	}
}

// TestFingerprintCoversGovernorKnobs pins each governor knob into the
// campaign fingerprint directly.
func TestFingerprintCoversGovernorKnobs(t *testing.T) {
	base := governorOptions(8)
	for name, mutate := range map[string]func(*Options){
		"fuel":          func(o *Options) { o.Harness.Fuel++ },
		"max depth":     func(o *Options) { o.Harness.MaxDepth = 1024 },
		"stress every":  func(o *Options) { o.GenConfig.Stress.Every++ },
		"stress chains": func(o *Options) { o.GenConfig.Stress.ChainLength++ },
	} {
		changed := governorOptions(8)
		mutate(&changed)
		if fingerprint(base) == fingerprint(changed) {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}
