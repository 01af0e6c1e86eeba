package generator

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// programDigest hashes the printed programs of DefaultConfig seeds
// [0, n) and of GenerateStress seeds [0, nStress).
func programDigest(n, nStress int64) string {
	h := sha256.New()
	for seed := int64(0); seed < n; seed++ {
		p := New(DefaultConfig().WithSeed(seed)).Generate()
		fmt.Fprintf(h, "seed %d\n%s\n", seed, ir.Print(p))
	}
	for seed := int64(0); seed < nStress; seed++ {
		fmt.Fprintf(h, "stress %d\n%s\n", seed, ir.Print(stressGen(seed).GenerateStress()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// toggleDigest hashes the printed programs of seeds [0, n) under the
// configs DefaultConfig leaves unpinned, since it turns every feature on:
// one without parametric polymorphism, and one with the strategy and
// type-shape toggles off.
func toggleDigest(n int64) string {
	noPoly := DefaultConfig()
	noPoly.ParametricPolymorphism = false
	off := DefaultConfig()
	off.Lambdas, off.MethodReferences, off.Conditionals = false, false, false
	off.UseSiteVariance, off.BoundedPolymorphism, off.Variance, off.Inheritance = false, false, false, false
	h := sha256.New()
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"no-parametric", noPoly}, {"toggles-off", off}} {
		for seed := int64(0); seed < n; seed++ {
			p := New(c.cfg.WithSeed(seed)).Generate()
			fmt.Fprintf(h, "%s %d\n%s\n", c.name, seed, ir.Print(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares a digest with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
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
		t.Fatalf("generator output changed: digest %s, golden %s (%s)", got, strings.TrimSpace(string(want)), path)
	}
}

// TestGeneratorGolden pins the generator's output — the programs of
// seeds 0–199 and the stress programs of seeds 0–29 — to a recorded
// digest. Generation draws every choice from one seeded RNG, so any
// change that moves a draw or a pool's order shows up here. Run with
// -update to re-record after an intended change.
func TestGeneratorGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "programs_seeds_0_199.sha256"), programDigest(200, 30))
}

// TestGeneratorTogglesGolden pins the branches DefaultConfig never takes:
// the programs of seeds 0–99 under each config of toggleDigest.
func TestGeneratorTogglesGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "toggles_seeds_0_99.sha256"), toggleDigest(100))
}
