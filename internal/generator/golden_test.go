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

// TestGeneratorGolden pins the generator's output — the programs of
// seeds 0–199 and the stress programs of seeds 0–29 — to a recorded
// digest. Generation draws every choice from one seeded RNG, so any
// change that moves a draw or a pool's order shows up here. Run with
// -update to re-record after an intended change.
func TestGeneratorGolden(t *testing.T) {
	path := filepath.Join("testdata", "programs_seeds_0_199.sha256")
	got := programDigest(200, 30)
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
		t.Fatalf("generator output over seeds 0-199 changed: digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}
