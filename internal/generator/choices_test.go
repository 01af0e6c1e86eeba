package generator

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
)

// TestPermIntoMatchesRandPerm pins permInto to rand.Perm: the same
// permutation, and the RNG left in the same state.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 1301} {
		for n := 0; n <= 40; n++ {
			want := rand.New(rand.NewSource(seed))
			g := &Generator{rng: rand.New(rand.NewSource(seed))}
			p := want.Perm(n)
			got := make([]int, n)
			g.permInto(got)
			if !slices.Equal(got, p) {
				t.Fatalf("seed %d, n %d: permInto = %v, rand.Perm = %v", seed, n, got, p)
			}
			if a, b := g.rng.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d, n %d: next Int63 %d after permInto, %d after rand.Perm", seed, n, a, b)
			}
		}
	}
}

// TestDrawOnlyInstantiateDrawsAlike checks that instantiate without
// building makes exactly the draws a building one makes, for every class
// of seeds 0–199: two generators in the same state instantiate the same
// class, one of each kind, and must then draw the same next number.
func TestDrawOnlyInstantiateDrawsAlike(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		building, drawing := New(DefaultConfig().WithSeed(seed)), New(DefaultConfig().WithSeed(seed))
		building.Generate()
		drawing.Generate()
		for i, cls := range building.classes {
			other := drawing.classes[i]
			for depth := 0; depth < 3; depth++ {
				building.instantiate(cls, &scope{typeParams: cls.TypeParams}, depth, true)
				if len(other.TypeParams) > 0 {
					if got := drawing.instantiate(other, &scope{typeParams: other.TypeParams}, depth, false); got != nil {
						t.Fatalf("seed %d: draw-only instantiate of %s built %s", seed, other.Name, got)
					}
				} else {
					drawing.instantiate(other, &scope{}, depth, false)
				}
				if a, b := building.rng.Int63(), drawing.rng.Int63(); a != b {
					t.Fatalf("seed %d, class %s, depth %d: RNG diverged after a draw-only instantiate", seed, cls.Name, depth)
				}
			}
		}
	}
}

// TestScratchStacksEmptyAfterProgram checks that every resolution step
// pops what it pushed: the perm and candidate stacks are empty after
// Generate and after GenerateStress.
func TestScratchStacksEmptyAfterProgram(t *testing.T) {
	used := false
	for seed := int64(0); seed < 60; seed++ {
		g := stressGen(seed)
		for _, next := range []func() *ir.Program{g.Generate, g.GenerateStress} {
			next()
			if len(g.perm) != 0 || len(g.cands) != 0 {
				t.Fatalf("seed %d: %d perm ints and %d candidates left on the scratch stacks", seed, len(g.perm), len(g.cands))
			}
			used = used || cap(g.perm) > 0 && cap(g.cands) > 0
		}
	}
	if !used {
		t.Error("the scratch stacks were never used: the test exercises nothing")
	}
}
