package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// TestMetricsObservationDoesNotPerturbCampaign is the tentpole
// guardrail: instrumentation is observation only, so a chaos soak's
// report must be bit-for-bit identical with metrics and tracing on or
// off, at 1 and at 8 workers.
func TestMetricsObservationDoesNotPerturbCampaign(t *testing.T) {
	for _, workers := range []int{1, 8} {
		off := chaosSoakOptions(20)
		off.Workers = workers
		plain := Run(off)
		if plain.Err != nil {
			t.Fatalf("workers=%d: unobserved run failed: %v", workers, plain.Err)
		}

		on := chaosSoakOptions(20)
		on.Workers = workers
		on.Metrics = metrics.NewRegistry()
		on.Trace = metrics.NewTrace(1024)
		observed := Run(on)
		if observed.Err != nil {
			t.Fatalf("workers=%d: observed run failed: %v", workers, observed.Err)
		}

		assertSameOutcome(t, fmt.Sprintf("metrics on vs off, workers=%d", workers), plain, observed)

		// And the instruments must agree with the deterministic report.
		snap := on.Metrics.Snapshot()
		if got := snap.Counters["campaign.units"]; got != int64(on.Programs) {
			t.Errorf("workers=%d: campaign.units = %d, want %d", workers, got, on.Programs)
		}
		if got := snap.Gauges["campaign.bugs"]; got != int64(len(observed.Found)) {
			t.Errorf("workers=%d: campaign.bugs gauge = %d, want %d", workers, got, len(observed.Found))
		}
		verdictTotal := int64(0)
		for name, n := range snap.Counters {
			if len(name) > 18 && name[:18] == "campaign.verdicts." {
				verdictTotal += n
			}
		}
		reportTotal := 0
		for _, perKind := range observed.Verdicts {
			for _, perVerdict := range perKind {
				for _, n := range perVerdict {
					reportTotal += n
				}
			}
		}
		if verdictTotal != int64(reportTotal) {
			t.Errorf("workers=%d: verdict counters sum to %d, report holds %d", workers, verdictTotal, reportTotal)
		}
		if on.Trace.Total() == 0 {
			t.Errorf("workers=%d: chaos soak emitted no trace events", workers)
		}
	}
}

func TestBugRateSeriesDerivation(t *testing.T) {
	r := Run(smallOptions(80))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	series := r.BugRateSeries()
	if len(series) == 0 {
		t.Fatal("campaign produced no bug-rate series")
	}
	units, newBugs, lastCum := 0, 0, 0
	for i, p := range series {
		if p.StartSeq != i*SeriesBucketWidth || p.EndSeq != (i+1)*SeriesBucketWidth {
			t.Errorf("bucket %d spans [%d, %d), want [%d, %d)",
				i, p.StartSeq, p.EndSeq, i*SeriesBucketWidth, (i+1)*SeriesBucketWidth)
		}
		if p.CumulativeBugs < lastCum {
			t.Errorf("cumulative bugs shrank at bucket %d: %d -> %d", i, lastCum, p.CumulativeBugs)
		}
		lastCum = p.CumulativeBugs
		units += p.Units
		newBugs += p.NewBugs
	}
	if units != r.Opts.Programs {
		t.Errorf("series covers %d units, want %d", units, r.Opts.Programs)
	}
	if newBugs != len(r.Found) || lastCum != len(r.Found) {
		t.Errorf("series found %d new / %d cumulative bugs, report holds %d",
			newBugs, lastCum, len(r.Found))
	}
}

// TestDurableResumeContinuesSeries pins the resume contract for the
// bug-rate series and the primed registry: a kill/resume campaign's
// series equals the uninterrupted run's, and the resumed process's
// fresh registry is primed with the restored totals so its live
// instruments continue instead of restarting at zero.
func TestDurableResumeContinuesSeries(t *testing.T) {
	golden := Run(smallOptions(30))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	o := smallOptions(30)
	o.StateDir = t.TempDir()
	o.Metrics = metrics.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, firstErr := RunContext(ctx, o)
	cancel()

	// Second cycle models the restarted process: same state dir, brand
	// new registry. Whether the first cycle was killed or finished, the
	// resume must restore + prime, then fold whatever remains — leaving
	// the fresh registry covering the whole campaign.
	o.Resume = true
	o.Metrics = metrics.NewRegistry()
	r, err := RunContext(context.Background(), o)
	if err != nil {
		t.Fatalf("resume (after first cycle err=%v) failed: %v", firstErr, err)
	}
	assertSameOutcome(t, "resumed series", golden, r)
	if got := o.Metrics.Snapshot().Counters["campaign.units"]; got != int64(o.Programs) {
		t.Errorf("resumed registry campaign.units = %d, want %d", got, o.Programs)
	}
	if got := o.Metrics.Snapshot().Gauges["campaign.bugs"]; got != int64(len(r.Found)) {
		t.Errorf("resumed registry campaign.bugs = %d, want %d", got, len(r.Found))
	}
}

// TestCampaignEndpointsServeLiveMetrics drives a real observed campaign
// and reads its debug endpoints over HTTP: /metrics must expose the
// campaign counters, per-stage pipeline instruments, and wall-time
// histograms; /events must tail verdict events.
func TestCampaignEndpointsServeLiveMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	trace := metrics.NewTrace(2048)
	srv, err := metrics.Serve("127.0.0.1:0", reg, trace)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	o := smallOptions(30)
	o.Metrics = reg
	o.Trace = trace
	if r := Run(o); r.Err != nil {
		t.Fatal(r.Err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}

	var snap metrics.Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["campaign.units"] != int64(o.Programs) {
		t.Errorf("/metrics campaign.units = %d, want %d", snap.Counters["campaign.units"], o.Programs)
	}
	if snap.Counters["pipeline.campaign.execute.in"] == 0 {
		t.Error("/metrics has no per-stage pipeline throughput")
	}
	foundVerdict, foundWall := false, false
	for name := range snap.Counters {
		if len(name) > 18 && name[:18] == "campaign.verdicts." {
			foundVerdict = true
		}
	}
	for name, h := range snap.Histograms {
		if len(name) > 24 && name[:24] == "harness.compile_wall_ns." && h.Count > 0 {
			foundWall = true
		}
	}
	if !foundVerdict {
		t.Error("/metrics has no per-compiler verdict counters")
	}
	if !foundWall {
		t.Error("/metrics has no compile wall-time histograms")
	}
	if snap.Histograms["pipeline.campaign.execute.service_ns"].Count == 0 {
		t.Error("/metrics has no per-stage service-time histogram")
	}

	var events struct {
		Total  int64           `json:"total"`
		Events []metrics.Event `json:"events"`
	}
	if err := json.Unmarshal(get("/events?n=10"), &events); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if events.Total == 0 || len(events.Events) == 0 {
		t.Fatal("/events is empty after an observed campaign")
	}
	seenVerdict := false
	for _, e := range events.Events {
		if e.Kind == "verdict" && e.Compiler != "" && e.Verdict != "" {
			seenVerdict = true
		}
	}
	if !seenVerdict {
		t.Errorf("/events tail has no verdict events: %+v", events.Events)
	}
}

// syncBuffer is a goroutine-safe writer for the heartbeat test.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestHeartbeatPrintsProgress(t *testing.T) {
	status := func() Status {
		return Status{
			State:    StateRunning,
			Durable:  true,
			Programs: 40,
			Units:    7,
			Execs:    84,
			Bugs:     3,
			Breakers: map[string]harness.BreakerSnapshot{
				"groovyc": {State: harness.BreakerOpen},
				"javac":   {State: harness.BreakerClosed},
			},
		}
	}

	var buf syncBuffer
	stop := StartHeartbeat(&buf, status, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // stop is idempotent

	out := buf.String()
	for _, want := range []string{
		"heartbeat:", "units 7/40", "execs 84", "bugs 3",
		"breakers groovyc=open",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("heartbeat output missing %q:\n%s", want, out)
		}
	}

	// A nil status source or zero interval is a no-op.
	StartHeartbeat(io.Discard, nil, time.Millisecond)()
	StartHeartbeat(io.Discard, status, 0)()
}

// TestHeartbeatLine pins the line format both the CLI heartbeat and
// the server's SSE heartbeat render through.
func TestHeartbeatLine(t *testing.T) {
	prev := Status{Units: 3}
	cur := Status{Programs: 40, Units: 7, Execs: 84, Bugs: 3}
	line := HeartbeatLine(prev, cur, 2*time.Second)
	want := "heartbeat: units 7/40 (2.0/s) execs 84 bugs 3 breakers closed"
	if line != want {
		t.Errorf("HeartbeatLine = %q, want %q", line, want)
	}
	cur.Durable = true
	if durable := HeartbeatLine(prev, cur, 2*time.Second); durable != want {
		t.Errorf("durable HeartbeatLine = %q, want %q", durable, want)
	}
}

// TestFingerprintIgnoresObservability pins that toggling metrics or
// tracing between resume cycles cannot orphan a state directory.
func TestFingerprintIgnoresObservability(t *testing.T) {
	base := smallOptions(10)
	observed := smallOptions(10)
	observed.Metrics = metrics.NewRegistry()
	observed.Trace = metrics.NewTrace(64)
	observed.Harness.Metrics = observed.Metrics
	observed.Harness.Trace = observed.Trace
	if fingerprint(base) != fingerprint(observed) {
		t.Error("fingerprint changed when observability was attached")
	}
	changed := smallOptions(10)
	changed.Seed = 99
	if fingerprint(base) == fingerprint(changed) {
		t.Error("fingerprint ignored a campaign-defining option")
	}
}
