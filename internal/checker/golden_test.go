package checker_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// diagDigest hashes the checker's rendered output over generator seeds
// [0, n): for each seed, the base program, its TEM mutant, its TOM mutant
// and its REM mutant (seeded as the campaign seeds them), in that order,
// each checked under an unlimited budget; then the stress programs of
// seeds [0, nStress) checked under a 30000-step budget, with their
// bailout. Every Diagnostic is hashed as rendered, every InferredReturns
// entry in key order, and the fuel each check spent, so a kernel change
// that moves a charge shows up as surely as one that moves a message. It
// returns the digest and the number of diagnostics seen.
func diagDigest(n, nStress int64) (string, int) {
	h := sha256.New()
	diags := 0
	check := func(label string, p *ir.Program, b *types.Builtins, budget *governor.Budget) {
		if p == nil {
			fmt.Fprintf(h, "%s none\n", label)
			return
		}
		res := checker.Check(p, b, checker.Options{Budget: budget})
		fmt.Fprintf(h, "%s diags=%d fuel=%d\n", label, len(res.Diags), budget.Spent())
		if res.Bailout != nil {
			fmt.Fprintf(h, "bailout %s\n", res.Bailout)
		}
		for _, d := range res.Diags {
			fmt.Fprintf(h, "%s\n", d)
		}
		diags += len(res.Diags)
		keys := make([]string, 0, len(res.InferredReturns))
		for k := range res.InferredReturns {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "ret %s = %s\n", k, res.InferredReturns[k])
		}
	}
	for seed := int64(0); seed < n; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		b := g.Builtins()
		base := g.Generate()
		tem, _ := mutation.TypeErasure(base, b)
		tom, _ := mutation.TypeOverwriting(base, b, rand.New(rand.NewSource(seed)))
		rem, _ := mutation.ResolutionMutation(base, b, rand.New(rand.NewSource(seed^0x9e3779b9)))
		for _, in := range []struct {
			kind string
			p    *ir.Program
		}{{"base", base}, {"tem", tem}, {"tom", tom}, {"rem", rem}} {
			check(fmt.Sprintf("seed %d %s", seed, in.kind), in.p, b, governor.New(0, 0))
		}
	}
	for seed := int64(0); seed < nStress; seed++ {
		cfg := generator.DefaultConfig().WithSeed(seed)
		cfg.Stress = generator.StressConfig{Every: 1}
		g := generator.New(cfg)
		check(fmt.Sprintf("stress %d", seed), g.GenerateStress(), g.Builtins(), governor.New(30000, 0))
	}
	return hex.EncodeToString(h.Sum(nil)), diags
}

// TestDiagnosticsGolden pins every diagnostic the reference checker
// renders, every return type it infers and the fuel every check spends,
// over seeds 0–199 (base, TEM, TOM and REM programs) and stress seeds
// 0–29 (with their bailouts), to a digest, so a change in any message
// text, down to one byte of a diagnostic's subject, or in any fuel
// charge shows up here. Run with -update to re-record after an intended
// change.
func TestDiagnosticsGolden(t *testing.T) {
	path := filepath.Join("testdata", "diags_seeds_0_199.sha256")
	got, diags := diagDigest(200, 30)
	t.Logf("%d diagnostics", diags)
	if diags == 0 {
		t.Fatal("no diagnostics rendered: the digest would not cover diagnostic text")
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("checker output over seeds 0-199 changed: digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}
