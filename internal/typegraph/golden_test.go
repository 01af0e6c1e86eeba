package typegraph

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// sortedNames renders the nodes' names in sorted order. The candidate
// lists are hashed as sorted names because their order was map-random
// when the digest was recorded.
func sortedNames(g *Graph, ids []NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Name(id)
	}
	sort.Strings(out)
	return out
}

// graphDigest hashes every method graph of generator seeds [0, n): its
// node and edge counts, its Dot rendering, and each candidate's kind and
// nodes by name.
func graphDigest(n int64) string {
	h := sha256.New()
	for seed := int64(0); seed < n; seed++ {
		a := Analyze(genProgram(seed), types.NewBuiltins())
		fmt.Fprintf(h, "seed %d\n", seed)
		for i, g := range a.BuildAll() {
			fmt.Fprintf(h, "method %s nodes %d edges %d\n%s", a.Methods[i].Name, g.NumNodes(), g.NumEdges(), g.Dot())
			for _, c := range g.Candidates {
				fmt.Fprintf(h, "cand %s %s params %q erase %q vanish %q\n", c.Kind, g.Name(c.NodeID),
					sortedNames(g, c.ParamNodeIDs), sortedNames(g, c.EraseSet), sortedNames(g, c.VanishNodes))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphGolden pins the type graphs of seeds 0–199: every node and
// edge, their names, and the candidates. Run with -update to re-record
// after an intended change to the analysis.
func TestGraphGolden(t *testing.T) {
	path := filepath.Join("testdata", "graph_seeds_0_199.sha256")
	got := graphDigest(200)
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
		t.Fatalf("type graphs over seeds 0-199 changed: digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}

// TestCandidateNodesAreDeterministic builds every method graph of seeds
// 0–199 twice and requires each candidate's node lists to come out in the
// same order both times.
func TestCandidateNodesAreDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		a := Analyze(genProgram(seed), types.NewBuiltins())
		first, second := a.BuildAll(), a.BuildAll()
		for m := range first {
			for i, c := range first[m].Candidates {
				d := second[m].Candidates[i]
				for _, l := range [][2][]NodeID{{c.ParamNodeIDs, d.ParamNodeIDs}, {c.EraseSet, d.EraseSet}, {c.VanishNodes, d.VanishNodes}} {
					if !slices.Equal(l[0], l[1]) {
						t.Fatalf("seed %d %s: candidate %d lists %v, then %v", seed, a.Methods[m].Name, i, l[0], l[1])
					}
				}
			}
		}
	}
}
