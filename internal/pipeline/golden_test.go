package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/mutation"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// mutateDigest hashes everything the Mutate stage derives over generator
// seeds [0, n) with every mutant kind on: each input's kind, printed
// program and report, in input order, and the unit's repair count.
func mutateDigest(n int64) string {
	h := sha256.New()
	gen := &Generate{Config: generator.DefaultConfig()}
	mut := &Mutate{TEM: true, TOM: true, TEMTOM: true, REM: true}
	for seed := int64(0); seed < n; seed++ {
		u := &Unit{Seed: seed}
		for _, s := range []Stage{gen, mut} {
			if err := s.Run(context.Background(), u); err != nil {
				panic(err)
			}
		}
		fmt.Fprintf(h, "seed %d repairs %d\n", seed, u.Repairs)
		for _, in := range u.Inputs {
			fmt.Fprintf(h, "== %s\n%s\n", in.Kind, ir.Print(in.Prog))
			switch r := in.Report.(type) {
			case *mutation.TEMReport:
				for _, e := range r.Erased {
					fmt.Fprintf(h, "%s\n", e)
				}
				fmt.Fprintf(h, "seen=%d preserving=%d tried=%d repaired=%d\n",
					r.CandidatesSeen, r.CandidatesPreserving, r.CombinationsTried, r.RepairedMethods)
			case fmt.Stringer:
				fmt.Fprintf(h, "%s\n", r)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMutateGolden pins the Mutate stage's inputs and reports over
// generator seeds 0–199, so a change to how the stage shares work between
// TEM, TOM, TOM∘TEM and REM cannot move a mutant unnoticed. Run with
// -update to re-record after an intended change.
func TestMutateGolden(t *testing.T) {
	path := filepath.Join("testdata", "mutate_seeds_0_199.sha256")
	got := mutateDigest(200)
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
		t.Fatalf("Mutate stage output over seeds 0-199 changed: digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}
