package compilers

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/mutation"
)

// sharedCheckPrograms returns, for seeds 0–199, each base program and
// its TEM, TOM, TOM∘TEM and REM mutants (seeded as the pipeline's Mutate
// stage seeds them), followed by one stress program of each shape.
func sharedCheckPrograms(t *testing.T) []*ir.Program {
	t.Helper()
	var progs []*ir.Program
	for seed := int64(0); seed < 200; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		base := g.Generate()
		b := g.Builtins()
		progs = append(progs, base)
		tem, rep := mutation.TypeErasure(base, b)
		if rep.Changed() {
			progs = append(progs, tem)
		}
		if tom, _ := mutation.TypeOverwriting(base, b, rand.New(rand.NewSource(seed))); tom != nil {
			progs = append(progs, tom)
		}
		if temtom, _ := mutation.TypeOverwriting(tem, b, rand.New(rand.NewSource(seed^0x5bd1e995))); temtom != nil {
			progs = append(progs, temtom)
		}
		if rem, _ := mutation.ResolutionMutation(base, b, rand.New(rand.NewSource(seed^0x9e3779b9))); rem != nil {
			progs = append(progs, rem)
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		cfg := generator.DefaultConfig().WithSeed(seed)
		// A short chain keeps the unify storm finite without a fuel limit;
		// the deep-nesting shape still trips the default depth guard.
		cfg.Stress = generator.StressConfig{Every: 1, ChainLength: 8}
		progs = append(progs, generator.New(cfg).GenerateStress())
	}
	return progs
}

// TestSharedCheckMatchesPerCompiler: for every compiler, a compile that
// overlays a filled shared check gives exactly the Result of a compile
// that runs its own check, with and without a fuel budget.
func TestSharedCheckMatchesPerCompiler(t *testing.T) {
	progs := sharedCheckPrograms(t)
	comps := All()
	for _, fuel := range []int64{0, 30000} {
		budget := func(ctx context.Context) (context.Context, *governor.Budget) {
			gov := governor.New(fuel, 0)
			return governor.WithBudget(ctx, gov), gov
		}
		exhausted := 0
		for i, p := range progs {
			shared := WithSharedCheck(context.Background())
			fill, _ := budget(shared)
			first, err := comps[0].CompileContext(fill, p, nil)
			if err != nil {
				t.Fatalf("fuel %d program %d: filling compile: %v", fuel, i, err)
			}
			if first.Status == ResourceExhausted {
				exhausted++
			}
			for _, c := range comps {
				freshCtx, _ := budget(context.Background())
				want, err := c.CompileContext(freshCtx, p, nil)
				if err != nil {
					t.Fatalf("fuel %d program %d %s: fresh compile: %v", fuel, i, c.Name(), err)
				}
				memoCtx, gov := budget(shared)
				got, err := c.CompileContext(memoCtx, p, nil)
				if err != nil {
					t.Fatalf("fuel %d program %d %s: shared compile: %v", fuel, i, c.Name(), err)
				}
				if gov.Spent() != 0 {
					t.Fatalf("fuel %d program %d %s: shared compile spent %d steps; it must read the filled check",
						fuel, i, c.Name(), gov.Spent())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fuel %d program %d %s: shared %+v, fresh %+v", fuel, i, c.Name(), got, want)
				}
			}
		}
		if fuel > 0 && exhausted == 0 {
			t.Errorf("fuel %d exhausted no program; the exhausted path went untested", fuel)
		}
		t.Logf("fuel %d: %d programs, %d exhausted", fuel, len(progs), exhausted)
	}
}

// stressProgram returns a lub-storm program: long enough that a check
// passes several cancellation polls.
func stressProgram() *ir.Program {
	cfg := generator.DefaultConfig().WithSeed(0)
	cfg.Stress = generator.StressConfig{Every: 1, ChainLength: 40}
	return generator.New(cfg).GenerateStress()
}

func storedCheck(ctx context.Context) *Checked {
	return ctx.Value(sharedCheckKey{}).(*sharedCheck).checked.Load()
}

// TestSharedCheckSkipsCancelledCheck: a cancelled check stores nothing,
// so the next compile of the input runs the checker itself.
func TestSharedCheckSkipsCancelledCheck(t *testing.T) {
	p := stressProgram()
	shared := WithSharedCheck(context.Background())
	cancelled, cancel := context.WithCancel(shared)
	cancel()
	gov := governor.New(0, 0)
	gov.Bind(cancelled)
	if _, err := Javac().CompileContext(governor.WithBudget(cancelled, gov), p, nil); err == nil {
		t.Fatal("cancelled compile returned no error")
	}
	if storedCheck(shared) != nil {
		t.Fatal("a cancelled check was stored")
	}
	live := governor.New(0, 0)
	if _, err := Kotlinc().CompileContext(governor.WithBudget(shared, live), p, nil); err != nil {
		t.Fatalf("live compile: %v", err)
	}
	if live.Spent() == 0 {
		t.Error("the compile after a cancelled check read a shared check instead of running the checker")
	}
	if storedCheck(shared) == nil {
		t.Error("a finished check was not stored")
	}
	if WithoutSharedCheck(shared).Value(sharedCheckKey{}).(*sharedCheck) != nil {
		t.Error("WithoutSharedCheck left the shared check attached")
	}
}

// TestSharedCheckLateAbandonedCompile mirrors the harness watchdog: each
// round abandons a compile on its own goroutine while the other compilers
// compile the same input through the same shared check. In even rounds
// the abandoned compile finishes and stores its check concurrently with
// their reads; in odd rounds its deadline has passed, so it bails out
// cancelled. Run under -race; every result must equal a fresh compile's.
func TestSharedCheckLateAbandonedCompile(t *testing.T) {
	p := stressProgram()
	comps := All()
	want := make([]*Result, len(comps))
	for i, c := range comps {
		want[i] = c.Compile(p, nil)
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		shared := WithSharedCheck(context.Background())
		deadline := time.Hour
		if round%2 == 1 {
			deadline = 0
		}
		dctx, cancel := context.WithTimeout(shared, deadline)
		gov := governor.New(0, 0)
		gov.Bind(dctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			res, err := comps[0].CompileContext(governor.WithBudget(dctx, gov), p, nil)
			if err == nil && !reflect.DeepEqual(res, want[0]) {
				t.Errorf("abandoned compile: %+v, want %+v", res, want[0])
			}
		}()
		for i, c := range comps[1:] {
			got, err := c.CompileContext(governor.WithBudget(shared, governor.New(0, 0)), p, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if !reflect.DeepEqual(got, want[i+1]) {
				t.Errorf("round %d %s: %+v, want %+v", round, c.Name(), got, want[i+1])
			}
		}
	}
	wg.Wait()
}
