package types

import (
	"fmt"
	"testing"

	"repro/internal/governor"
)

// buildChainApp builds `class N0<T>; class Ni<T> : N(i-1)<T>` and returns
// the application N_levels<Int>. Unifying two such applications from
// unrelated families is the system's genuine exponential: unifyInto
// backtracks over both supertype chains (climb t1, then climb t2), so a
// failing unification explores binomial(m+n, m) climb interleavings.
func buildChainApp(family string, levels int) *App {
	t0 := NewParameter(family+"0", "T")
	prev := NewConstructor(family+"0", []*Parameter{t0}, nil)
	for i := 1; i <= levels; i++ {
		ti := NewParameter(fmt.Sprintf("%s%d", family, i), "T")
		prev = NewConstructor(fmt.Sprintf("%s%d", family, i), []*Parameter{ti}, prev.Apply(ti))
	}
	return prev.Apply(NewSimple("Int", nil))
}

// meteredUnify runs UnifyB under a fresh budget and returns what the
// budget saw: steps spent and the bailout, if any.
func meteredUnify(t *testing.T, fuel int64, t1, t2 Type) (spent int64, bail *governor.Bailout) {
	t.Helper()
	b := governor.New(fuel, 0)
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if bail, ok = governor.AsBailout(r); !ok {
					panic(r)
				}
			}
		}()
		UnifyB(b, t1, t2)
	}()
	return b.Spent(), bail
}

func TestMeteredUnifyExhaustsOnBacktrackingBlowup(t *testing.T) {
	// ~binomial(50,25) ≈ 1e14 climb interleavings: unmetered this would
	// run for days; metered it must die after exactly fuel+1 steps.
	a := buildChainApp("GovA", 25)
	b := buildChainApp("GovB", 25)
	spent, bail := meteredUnify(t, 50_000, a, b)
	if bail == nil || bail.Reason != governor.FuelExhausted {
		t.Fatalf("unify backtracking blowup must exhaust 50k fuel, got bail=%+v spent=%d", bail, spent)
	}
}

func TestMeteredUnifyCompletesWithinBudget(t *testing.T) {
	// Short chains keep the backtracking tree small (binomial(12,6)=924).
	a := buildChainApp("GovC", 6)
	b := buildChainApp("GovD", 6)
	bud := governor.New(1_000_000, 0)
	UnifyB(bud, a, b)
	if bud.Spent() == 0 {
		t.Fatal("metered unify charged nothing")
	}
}

// TestMeteredFuelIsCacheIndependent is the determinism keystone: the steps
// a guarded walk charges — and therefore the exhaustion point — must not
// depend on what the process computed before. The relations keep no state
// between calls, so repeated runs, and runs after unmetered relation
// queries over the same operands (as a prior program's compile would
// make), must all see the identical count.
func TestMeteredFuelIsCacheIndependent(t *testing.T) {
	a := buildChainApp("GovF", 25)
	b := buildChainApp("GovG", 25)
	const fuel = 50_000

	var spents []int64
	record := func(label string) {
		spent, bail := meteredUnify(t, fuel, a, b)
		if bail == nil {
			t.Fatalf("%s: expected exhaustion", label)
		}
		if bail.Spent != spent {
			t.Fatalf("%s: bailout reports %d spent, budget %d", label, bail.Spent, spent)
		}
		spents = append(spents, spent)
	}

	record("first run")
	IsSubtype(a, b)
	Supertype(a)
	record("after unmetered queries")
	record("repeat")

	for i, s := range spents[1:] {
		if s != spents[0] {
			t.Fatalf("run %d spent %d steps, run 0 spent %d — metered fuel depends on prior work", i+1, s, spents[0])
		}
	}
}

func TestMeteredDepthGuardOnDeepNesting(t *testing.T) {
	box := NewConstructor("Box", []*Parameter{NewParameter("Box", "T")}, nil)
	p := NewParameter("f", "T")
	var nested Type = p
	for i := 0; i < 2*governor.DefaultMaxDepth; i++ {
		nested = box.Apply(nested)
	}
	sigma := NewSubstitution()
	sigma.Bind(p, NewSimple("Int", nil))

	b := governor.New(1<<40, 0) // fuel-guarded => default depth guard
	var bail *governor.Bailout
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if bail, ok = governor.AsBailout(r); !ok {
					panic(r)
				}
			}
		}()
		sigma.ApplyB(b, nested)
	}()
	if bail == nil || bail.Reason != governor.DepthExceeded {
		t.Fatalf("want DepthExceeded on %d-deep nesting, got %+v", 2*governor.DefaultMaxDepth, bail)
	}
}

// Unmetered budgets (fuel 0, depth 0) must leave results untouched — they
// only count.
func TestUnguardedBudgetMatchesPlainRelation(t *testing.T) {
	sub := buildChainApp("GovH", 6)
	sup := buildChainApp("GovH", 3) // same family: prefix relation holds
	b := governor.New(0, 0)
	if got, want := IsSubtypeB(b, sub, sup), IsSubtype(sub, sup); got != want {
		t.Fatalf("unguarded metered relation %v, plain relation %v", got, want)
	}
	if b.Spent() == 0 {
		t.Fatal("unguarded budget should still count steps")
	}
}

func TestSuperChainTruncationObservable(t *testing.T) {
	// A self-cyclic hierarchy trips the 64-link cap.
	cyc := &Simple{TypeName: "Cyc"}
	cyc.Super = cyc

	var fired int
	SetSuperChainTruncationHook(func() { fired++ })
	defer SetSuperChainTruncationHook(nil)

	before := SuperChainTruncations()
	chain := SuperChain(cyc)
	if _, ok := chain[len(chain)-1].(Top); !ok {
		t.Fatal("capped chain must still end in Top")
	}
	if got := SuperChainTruncations() - before; got != 1 {
		t.Fatalf("truncation counter advanced by %d, want 1", got)
	}
	if fired != 1 {
		t.Fatalf("truncation hook fired %d times, want 1", fired)
	}

	// A healthy chain must not count.
	SuperChain(NewSimple("Leaf", NewSimple("Root", nil)))
	if got := SuperChainTruncations() - before; got != 1 {
		t.Fatalf("healthy chain advanced the truncation counter (total %d)", got)
	}
}
