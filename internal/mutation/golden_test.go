package mutation

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// temDigest hashes TEM's complete output over generator seeds [0, n): the
// printed mutant and every TEMReport field that existed when the golden
// file was recorded. CapHit is derived from CombinationsTried, so it is
// covered without being part of the digest.
func temDigest(n int64) string {
	h := sha256.New()
	for seed := int64(0); seed < n; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		mutant, r := TypeErasure(g.Generate(), g.Builtins())
		fmt.Fprintf(h, "seed %d\n%s\n", seed, ir.Print(mutant))
		for _, e := range r.Erased {
			fmt.Fprintf(h, "%s\n", e)
		}
		fmt.Fprintf(h, "seen=%d preserving=%d tried=%d repaired=%d\n",
			r.CandidatesSeen, r.CandidatesPreserving, r.CombinationsTried, r.RepairedMethods)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTEMGolden pins TEM's mutants and reports over seeds 0–199 to a
// digest recorded before the preservation check was rewritten, so any
// change to which annotations TEM erases, or to how many combinations
// it tries, shows up here. Run with -update to re-record after an
// intended change.
func TestTEMGolden(t *testing.T) {
	path := filepath.Join("testdata", "tem_seeds_0_199.sha256")
	got := temDigest(200)
	if *updateGolden {
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
		t.Fatalf("TEM output over seeds 0-199 changed: digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}

// tomDigest hashes TOM's output over generator seeds [0, n), each mutant
// seeded as the campaign seeds it: the printed mutant (or its absence)
// and the report line.
func tomDigest(n int64) string {
	h := sha256.New()
	for seed := int64(0); seed < n; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		mutant, r := TypeOverwriting(g.Generate(), g.Builtins(), rand.New(rand.NewSource(seed)))
		fmt.Fprintf(h, "seed %d\n", seed)
		if mutant != nil {
			fmt.Fprintf(h, "%s\n", ir.Print(mutant))
		}
		fmt.Fprintf(h, "%s\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTOMGolden pins TOM's mutants and reports over seeds 0–199, so a
// change to unification, substitution or the type pool that moves an
// overwrite shows up here. Run with -update to re-record after an
// intended change.
func TestTOMGolden(t *testing.T) {
	path := filepath.Join("testdata", "tom_seeds_0_199.sha256")
	got := tomDigest(200)
	if *updateGolden {
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
		t.Fatalf("TOM output over seeds 0-199 changed: digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}
