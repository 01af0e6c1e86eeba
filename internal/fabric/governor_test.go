package fabric

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/cli"
)

// TestFabricShardedFuelExhaustionMatchesSingleProcess extends the
// fabric's byte-equality promise to the resource governor: with a fuel
// budget set and pathological stress units exhausting it, the merged
// sharded report must byte-match the single-process run. This holds
// only because exhaustion is a pure function of (program, budget) —
// never of which worker ran the unit or where the shard boundaries
// fell — and because the fuel budget ships
// to workers inside the lease's cli.Config.
func TestFabricShardedFuelExhaustionMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	cfg := cli.Config{
		Seed:           20220401,
		Programs:       24,
		Workers:        2,
		CompileTimeout: cli.Duration(5 * time.Second),
		Fuel:           30000,
		StressEvery:    4,
	}
	want := refDoc(t, cfg)

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
		t.Errorf("sharded fuel-exhaustion report diverged from single-process run\n--- sharded ---\n%s\n--- single ---\n%s", got, want)
	}
}
