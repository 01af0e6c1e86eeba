package fabric

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/cli"
)

// TestFabricShardedSynthesisMatchesSingleProcess extends the fabric's
// byte-equality promise to API-driven synthesis: a -synth campaign
// merged across shards must byte-match the single-process run. This
// holds only because the synthesis cadence is a pure function of the
// unit seed — every shard agrees which units are synthesized without
// coordination — and because the cadence and corpus path ship to
// workers inside the lease's cli.Config.
func TestFabricShardedSynthesisMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	cfg := cli.Config{
		Seed:           20231104,
		Programs:       24,
		Workers:        2,
		CompileTimeout: cli.Duration(5 * time.Second),
		SynthEvery:     2,
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
		t.Errorf("sharded synthesis report diverged from single-process run\n--- sharded ---\n%s\n--- single ---\n%s", got, want)
	}
}
