package fabric

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

// TestFabricShardedDifferentialMatchesSingleProcess extends the
// fabric's byte-equality promise to the differential oracle: a sharded
// differential campaign's merged report — disagreement records and the
// pair matrix included — must byte-match the uninterrupted
// single-process run. The oracle mode rides to workers inside the
// lease's cli.Config, and disagreements fold commutatively by unit
// sequence, so shard boundaries cannot reorder or duplicate them.
func TestFabricShardedDifferentialMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	cfg := cli.Config{
		Seed:           20220401,
		Programs:       24,
		Workers:        2,
		CompileTimeout: cli.Duration(5 * time.Second),
		Oracle:         "differential",
	}
	want := refDoc(t, cfg)
	if !bytes.Contains(want, []byte(`"disagreements"`)) {
		t.Fatal("reference differential run found no disagreements; byte-equality would be vacuous")
	}

	clients := startWorkers(t, 3, nil, 10*time.Second)
	res, err := Run(context.Background(), Options{
		Config:         cfg,
		Shards:         5,
		Workers:        clients,
		HeartbeatEvery: 25 * time.Millisecond,
		CallTimeout:    10 * time.Second,
		RetryBackoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	if got := marshalDoc(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("sharded differential report diverged from single-process run\n--- sharded ---\n%s\n--- single ---\n%s", got, want)
	}

	// Suspect attribution survives the merge: at least one disagreement
	// names a concrete minority compiler.
	attributed := false
	for _, rec := range res.Report.Disagreements {
		if len(rec.Suspects) > 0 && !strings.Contains(rec.ID, "xlate:") {
			attributed = true
		}
	}
	if !attributed {
		t.Error("merged report carries no suspect-attributed compiler disagreement")
	}
}
