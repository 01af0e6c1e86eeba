package campaign_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/types"
)

// TestDeriveRederivesEveryFoundBug pins the one-derivation-path
// contract under each producer mix: re-deriving every unit through
// NewDerivation reproduces the campaign's per-kind input counts, and
// every found bug's first seed re-derives an input that triggers the
// bug on its compiler again.
func TestDeriveRederivesEveryFoundBug(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*cli.Config)
		// stressSeed is a seed the stress cadence selects; wantKind is
		// what it must derive as.
		stressSeed int64
		wantKind   oracle.InputKind
		wantStress bool
	}{
		{name: "grammar", set: func(*cli.Config) {}, stressSeed: 3, wantKind: oracle.Generated},
		{name: "fuel-stress", set: func(c *cli.Config) { c.Fuel = 30000; c.StressEvery = 4 },
			stressSeed: 3, wantKind: oracle.Generated, wantStress: true},
		// Both cadences claim every odd seed; synthesis wins, as in the
		// pipeline's Generate stage.
		{name: "synth-stress", set: func(c *cli.Config) { c.SynthEvery = 2; c.StressEvery = 2 },
			stressSeed: 3, wantKind: oracle.Synthesized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cli.NewConfig()
			cfg.Seed, cfg.Programs = 3, 40
			tc.set(cfg)
			opts, err := cfg.CampaignOptions()
			if err != nil {
				t.Fatal(err)
			}
			report := campaign.Run(opts)
			if report.Err != nil {
				t.Fatal(report.Err)
			}
			if len(report.Found) == 0 {
				t.Fatal("campaign found no bugs")
			}

			derive, err := campaign.NewDerivation(opts)
			if err != nil {
				t.Fatal(err)
			}
			if u := derive.Derive(tc.stressSeed); u.Kind != tc.wantKind || u.Stress != tc.wantStress {
				t.Errorf("seed %d derived as %s (stress %v), want %s (stress %v)",
					tc.stressSeed, u.Kind, u.Stress, tc.wantKind, tc.wantStress)
			}
			run := map[oracle.InputKind]int{}
			for i := 0; i < opts.Programs; i++ {
				for _, in := range derive.Derive(opts.Seed + int64(i)).Inputs {
					run[in.Kind]++
				}
			}
			if !reflect.DeepEqual(run, report.ProgramsRun) {
				t.Errorf("re-derived inputs per kind %v, campaign ran %v", run, report.ProgramsRun)
			}

			sandbox := harness.New(opts.Harness)
			for id, rec := range report.Found {
				in, comp, err := report.Trigger(id)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					continue
				}
				if comp.Name() != rec.Bug.Compiler || !rec.FoundBy.Has(in.Kind) {
					t.Errorf("%s: trigger is a %s input on %s; bug is %s's, found by %v",
						id, in.Kind, comp.Name(), rec.Bug.Compiler, rec.FoundBy.Kinds())
				}
				inv := sandbox.Compile(context.Background(), harness.WrapCompiler(comp), in.Prog, nil, harness.Key{Unit: rec.FirstSeed})
				if inv.Outcome != harness.Completed || !inv.Result.Triggers(id) {
					t.Errorf("%s: the re-derived %s input of seed %d does not trigger it", id, in.Kind, rec.FirstSeed)
				}
			}
		})
	}
}

// TestDeriveMutantsKeepTheirTyping: a derived unit's base program and
// its well-typed mutants (TEM, REM) type-check; its ill-typed mutants
// (TOM, TEM∘TOM) do not.
func TestDeriveMutantsKeepTheirTyping(t *testing.T) {
	derive, err := campaign.NewDerivation(campaign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u := derive.Derive(11)
	seen := oracle.KindSet(0)
	for _, in := range u.Inputs {
		seen.Add(in.Kind)
		ok := checker.Check(in.Prog, types.NewBuiltins(), checker.Options{}).OK()
		if want := in.Kind != oracle.TOMMutant && in.Kind != oracle.TEMTOMMutant; ok != want {
			t.Errorf("%s input: type-checks %v, want %v", in.Kind, ok, want)
		}
	}
	for _, k := range []oracle.InputKind{oracle.Generated, oracle.TEMMutant, oracle.TOMMutant} {
		if !seen.Has(k) {
			t.Errorf("seed 11 derived no %s input (got %v)", k, seen.Kinds())
		}
	}
}

// TestFindingsListEveryFoundBug: Findings is the report's found bugs,
// complete and sorted by compiler then ID.
func TestFindingsListEveryFoundBug(t *testing.T) {
	opts := campaign.DefaultOptions()
	opts.Programs = 40
	report := campaign.Run(opts)
	findings := report.Findings()
	if len(findings) == 0 || len(findings) != report.TotalFound() {
		t.Fatalf("%d findings for %d found bugs", len(findings), report.TotalFound())
	}
	for _, f := range findings {
		if f.ID == "" || f.Compiler == "" || f.Technique == "" || len(f.FoundBy) == 0 {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	if !sort.SliceIsSorted(findings, func(i, j int) bool {
		if findings[i].Compiler != findings[j].Compiler {
			return findings[i].Compiler < findings[j].Compiler
		}
		return findings[i].ID < findings[j].ID
	}) {
		t.Error("findings are not sorted by compiler then ID")
	}
}
