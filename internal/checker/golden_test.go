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
	"repro/internal/ir"
	"repro/internal/mutation"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// diagDigest hashes the checker's rendered output over generator seeds
// [0, n): for each seed, the base program, its TOM mutant and its REM
// mutant (seeded as the campaign seeds them), in that order. Every
// Diagnostic is hashed as rendered, and every InferredReturns entry in
// key order. It returns the digest and the number of diagnostics seen.
func diagDigest(n int64) (string, int) {
	h := sha256.New()
	diags := 0
	for seed := int64(0); seed < n; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		b := g.Builtins()
		base := g.Generate()
		tom, _ := mutation.TypeOverwriting(base, b, rand.New(rand.NewSource(seed)))
		rem, _ := mutation.ResolutionMutation(base, b, rand.New(rand.NewSource(seed^0x9e3779b9)))
		for _, in := range []struct {
			kind string
			p    *ir.Program
		}{{"base", base}, {"tom", tom}, {"rem", rem}} {
			if in.p == nil {
				fmt.Fprintf(h, "seed %d %s none\n", seed, in.kind)
				continue
			}
			res := checker.Check(in.p, b, checker.Options{})
			fmt.Fprintf(h, "seed %d %s diags=%d\n", seed, in.kind, len(res.Diags))
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
	}
	return hex.EncodeToString(h.Sum(nil)), diags
}

// TestDiagnosticsGolden pins every diagnostic the reference checker
// renders, and every return type it infers, over seeds 0–199 (base, TOM
// and REM programs) to a digest, so a change in any message text, down
// to one byte of a diagnostic's subject, shows up here. Run with -update
// to re-record after an intended change.
func TestDiagnosticsGolden(t *testing.T) {
	path := filepath.Join("testdata", "diags_seeds_0_199.sha256")
	got, diags := diagDigest(200)
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
