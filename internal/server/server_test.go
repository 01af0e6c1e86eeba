package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
)

// newTestServer starts a server over the options and an HTTP front for
// it.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 30 * time.Millisecond
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// request performs one API call.
func request(t *testing.T, ts *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var payload io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		payload = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// submit posts a campaign config and returns its assigned ID.
func submit(t *testing.T, ts *httptest.Server, cfg map[string]any) string {
	t.Helper()
	code, raw := request(t, ts, "POST", "/api/campaigns", cfg)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	return view.ID
}

// state fetches one campaign's lifecycle state string.
func state(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	code, raw := request(t, ts, "GET", "/api/campaigns/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("inspect %s: status %d: %s", id, code, raw)
	}
	var view struct {
		Status struct {
			State string `json:"state"`
		} `json:"status"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	return view.Status.State
}

// waitState polls until the campaign reaches the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if got := state(t, ts, id); got == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached state %s (now %s)", id, want, state(t, ts, id))
}

// goldenDoc runs the same submission in-process and encodes its report
// document exactly as the report endpoint does.
func goldenDoc(t *testing.T, mutate func(*cli.Config)) []byte {
	t.Helper()
	cfg := cli.NewConfig()
	mutate(cfg)
	opts, err := cfg.CampaignOptions()
	if err != nil {
		t.Fatal(err)
	}
	r, err := campaign.RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Doc()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerSubmitPauseResumeReportMatchesInProcess(t *testing.T) {
	s, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	defer s.Close()
	id := submit(t, ts, map[string]any{
		"seed": 1, "programs": 120, "workers": 2, "compilers": []string{"groovyc"},
	})

	// Pause mid-run (racing completion: a finished campaign refuses with
	// 409, which just degrades this into the no-pause path).
	time.Sleep(100 * time.Millisecond)
	code, raw := request(t, ts, "POST", "/api/campaigns/"+id+"/pause", nil)
	if code == http.StatusOK {
		if got := state(t, ts, id); got != "paused" {
			t.Fatalf("after pause: state %s", got)
		}
		// A paused campaign's report is served, and is partial.
		code, rep := request(t, ts, "GET", "/api/campaigns/"+id+"/report", nil)
		if code != http.StatusOK {
			t.Fatalf("report while paused: status %d", code)
		}
		var doc struct {
			Complete bool `json:"complete"`
		}
		if err := json.Unmarshal(rep, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Complete {
			t.Error("paused campaign served a complete report")
		}
		if code, raw := request(t, ts, "POST", "/api/campaigns/"+id+"/resume", nil); code != http.StatusOK {
			t.Fatalf("resume: status %d: %s", code, raw)
		}
	} else if code != http.StatusConflict {
		t.Fatalf("pause: status %d: %s", code, raw)
	}

	waitState(t, ts, id, "done")
	code, got := request(t, ts, "GET", "/api/campaigns/"+id+"/report", nil)
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := goldenDoc(t, func(c *cli.Config) {
		c.Seed, c.Programs, c.Workers, c.Compilers = 1, 120, 2, []string{"groovyc"}
	})
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP report differs from in-process run:\n%s\nvs\n%s", got, want)
	}

	// The inspect view names breaker positions, as it names states.
	code, raw = request(t, ts, "GET", "/api/campaigns/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("inspect: status %d: %s", code, raw)
	}
	var view struct {
		Status struct {
			Breakers map[string]struct {
				State json.RawMessage `json:"state"`
			} `json:"breakers"`
		} `json:"status"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if got := string(view.Status.Breakers["groovyc"].State); got != `"closed"` {
		t.Errorf("groovyc breaker state serialised as %s, want \"closed\"", got)
	}
}

func TestServerAdmissionQueue(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRunning: 1})
	first := submit(t, ts, map[string]any{
		"seed": 1, "programs": 60, "compilers": []string{"groovyc"},
	})
	second := submit(t, ts, map[string]any{
		"seed": 2, "programs": 10, "compilers": []string{"groovyc"},
	})
	// With one slot the second campaign starts queued.
	code, raw := request(t, ts, "GET", "/api/campaigns/"+second, nil)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var view struct {
		Queued bool `json:"queued"`
		Status struct {
			State string `json:"state"`
		} `json:"status"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.Status.State == "new" && !view.Queued {
		t.Error("second campaign is neither running nor queued")
	}
	// Both drain through the single slot to completion.
	waitState(t, ts, first, "done")
	waitState(t, ts, second, "done")
}

func TestServerValidationRejectsBadConfigs(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxPrograms: 100})
	for name, cfg := range map[string]map[string]any{
		"zero programs":    {"programs": 0},
		"too large":        {"programs": 5000},
		"unknown compiler": {"programs": 5, "compilers": []string{"rustc"}},
		"bad chaos":        {"programs": 5, "chaos": 2.0},
		// A field the config does not have (a removed knob or a
		// misspelling) is refused, not silently ignored.
		"removed batch_size":     {"programs": 5, "batch_size": 4},
		"removed snapshot_every": {"programs": 5, "snapshot_every": 4},
		"removed sync_every":     {"programs": 5, "sync_every": 4},
		"misspelt field":         {"programs": 5, "seeed": 3},
	} {
		if code, _ := request(t, ts, "POST", "/api/campaigns", cfg); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

// TestServerShardSubmissions pins the shard side of submission: a range
// outside [0, programs) is a 400, MaxPrograms bounds the range rather
// than the global count, an ended shard ships its journal and is not
// re-hosted by a restart, and a shard sent to a server with no data
// directory is a 400.
func TestServerShardSubmissions(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{DataDir: dir, MaxPrograms: 100})
	shard := func(lo, hi int) map[string]any {
		return map[string]any{"index": 0, "attempt": 0, "lo": lo, "hi": hi}
	}
	for name, cfg := range map[string]map[string]any{
		"negative lo":      {"programs": 10, "shard": shard(-1, 4)},
		"empty range":      {"programs": 10, "shard": shard(4, 4)},
		"reversed range":   {"programs": 10, "shard": shard(5, 4)},
		"past programs":    {"programs": 10, "shard": shard(8, 11)},
		"range over limit": {"programs": 5000, "shard": shard(0, 101)},
	} {
		if code, raw := request(t, ts, "POST", "/api/campaigns", cfg); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, code, raw)
		}
	}
	id := submit(t, ts, map[string]any{
		"seed": 1, "programs": 5000, "compilers": []string{"groovyc"}, "shard": shard(4000, 4004),
	})
	waitState(t, ts, id, "done")
	if code, raw := request(t, ts, "GET", "/api/campaigns/"+id+"/journal", nil); code != http.StatusOK || len(raw) == 0 {
		t.Errorf("journal of an ended shard: status %d, %d bytes", code, len(raw))
	}
	// A shard is a lease, not a hosted campaign: a restarted worker
	// does not re-host it.
	_, restarted := newTestServer(t, Options{DataDir: dir, Resume: true})
	if code, _ := request(t, restarted, "GET", "/api/campaigns/"+id, nil); code != http.StatusNotFound {
		t.Errorf("shard after a restart with resume: status %d, want 404", code)
	}

	_, bare := newTestServer(t, Options{})
	if code, _ := request(t, bare, "POST", "/api/campaigns", map[string]any{"programs": 10, "shard": shard(0, 5)}); code != http.StatusBadRequest {
		t.Errorf("shard on a server with no data dir: status %d, want 400", code)
	}
}

func TestServerCorpusAndRepro(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	id := submit(t, ts, map[string]any{
		"seed": 1, "programs": 40, "compilers": []string{"groovyc"},
	})
	waitState(t, ts, id, "done")

	code, raw := request(t, ts, "GET", "/api/corpus", nil)
	if code != http.StatusOK {
		t.Fatalf("corpus: status %d", code)
	}
	var corpus campaign.Corpus
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	if corpus.Campaigns != 1 || len(corpus.Bugs) == 0 {
		t.Fatalf("corpus after one campaign: campaigns=%d bugs=%d", corpus.Campaigns, len(corpus.Bugs))
	}

	var bugID string
	for bid := range corpus.Bugs {
		bugID = bid
		break
	}
	code, raw = request(t, ts, "GET", "/api/campaigns/"+id+"/repro?bug="+bugID, nil)
	if code != http.StatusOK {
		t.Fatalf("repro %s: status %d: %s", bugID, code, raw)
	}
	var doc reproDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Bug != bugID || doc.Compiler != "groovyc" || doc.Language == "" || doc.Kind == "" {
		t.Errorf("repro doc incomplete: %+v", doc)
	}
	if doc.ReducedNodes <= 0 || doc.ReducedNodes > doc.Nodes {
		t.Errorf("reduction grew the program: %d -> %d nodes", doc.Nodes, doc.ReducedNodes)
	}
	if doc.IR == "" || doc.Source == "" {
		t.Error("repro doc is missing the program text")
	}
	if code, _ := request(t, ts, "GET", "/api/campaigns/"+id+"/repro?bug=NOPE-1", nil); code != http.StatusNotFound {
		t.Errorf("unknown bug repro: status %d, want 404", code)
	}
}

// TestServerReproServesSynthesizedBugs: /repro re-derives a bug first
// found by a synthesized unit through the campaign's own derivation —
// the synthesizer, not the grammar generator — and serves it.
func TestServerReproServesSynthesizedBugs(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	id := submit(t, ts, map[string]any{
		"seed": 11, "programs": 16, "synth_every": 2, "compilers": []string{"groovyc"},
	})
	waitState(t, ts, id, "done")
	code, raw := request(t, ts, "GET", "/api/campaigns/"+id+"/report", nil)
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, raw)
	}
	var report campaign.ReportDoc
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	var bug *campaign.BugDoc
	for i, b := range report.Bugs {
		if b.Technique == "Synthesized" {
			bug = &report.Bugs[i]
			break
		}
	}
	if bug == nil {
		t.Fatalf("no synthesized-origin bug in %+v", report.Bugs)
	}
	code, raw = request(t, ts, "GET", "/api/campaigns/"+id+"/repro?bug="+bug.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("repro %s: status %d: %s", bug.ID, code, raw)
	}
	var doc reproDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kind != "synthesized" || doc.Seed != bug.FirstSeed || doc.IR == "" || doc.Source == "" {
		t.Errorf("repro doc for %s: kind %q, seed %d (want synthesized, %d)", bug.ID, doc.Kind, doc.Seed, bug.FirstSeed)
	}
}

func TestServerSSEStreamsHeartbeatsAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{Heartbeat: 20 * time.Millisecond})
	id := submit(t, ts, map[string]any{
		"seed": 1, "programs": 40, "workers": 2, "compilers": []string{"groovyc"},
	})
	req, err := http.NewRequest("GET", ts.URL+"/api/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %s", ct)
	}
	events := map[string]int{}
	sawLine := false
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events[name]++
			if name == "done" {
				break
			}
		}
		if strings.Contains(line, "heartbeat: units") {
			sawLine = true
		}
	}
	if events["done"] != 1 {
		t.Fatalf("stream ended without a done event: %v", events)
	}
	if events["trace"] == 0 {
		t.Error("no trace events streamed")
	}
	if events["heartbeat"] > 0 && !sawLine {
		t.Error("heartbeat events carried no rendered heartbeat line")
	}
	waitState(t, ts, id, "done")
}

// suspendedView is the part of a campaign's inspect view that says
// where its suspension stands.
type suspendedView struct {
	Queued    bool `json:"queued"`
	Suspended bool `json:"suspended"`
	Status    struct {
		State string `json:"state"`
		Units int    `json:"units"`
	} `json:"status"`
}

// inspect fetches one campaign's suspension view.
func inspect(t *testing.T, ts *httptest.Server, id string) suspendedView {
	t.Helper()
	code, raw := request(t, ts, "GET", "/api/campaigns/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("inspect %s: status %d: %s", id, code, raw)
	}
	var view suspendedView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestServerDrainAndResumeAcrossRestart: a paused campaign inspects the
// same before and after a drain and restart — paused, suspended, at the
// units it paused at — and resumes to the uninterrupted run's report.
func TestServerDrainAndResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{DataDir: dir})
	id := submit(t, ts1, map[string]any{
		"seed": 1, "programs": 300, "workers": 2, "compilers": []string{"groovyc"},
	})
	time.Sleep(150 * time.Millisecond)
	if code, raw := request(t, ts1, "POST", "/api/campaigns/"+id+"/pause", nil); code != http.StatusOK {
		t.Fatalf("pause: status %d: %s", code, raw)
	}
	before := inspect(t, ts1, id)
	if before.Status.State != "paused" || !before.Suspended {
		t.Fatalf("paused campaign inspects as %+v, want paused and suspended", before)
	}
	if before.Status.Units == 0 || before.Status.Units >= 300 {
		t.Fatalf("paused campaign folded %d of 300 units, want a partial run", before.Status.Units)
	}
	// SIGTERM path: drain suspends the server durably.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := request(t, ts1, "POST", "/api/campaigns",
		map[string]any{"programs": 5, "compilers": []string{"groovyc"}}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
	ts1.Close()
	// Manifests written before tenancy was removed carry a "tenant" key
	// per campaign; they must still load.
	addTenantKeys(t, filepath.Join(dir, manifestDoc))

	// A fresh server over the same data dir re-hosts the suspension.
	s2, ts2 := newTestServer(t, Options{DataDir: dir, Resume: true})
	defer s2.Close()
	if after := inspect(t, ts2, id); after != before {
		t.Errorf("re-hosted campaign inspects as %+v, want %+v as before the restart", after, before)
	}
	if code, raw := request(t, ts2, "POST", "/api/campaigns/"+id+"/resume", nil); code != http.StatusOK {
		t.Fatalf("resume after restart: status %d: %s", code, raw)
	}
	waitState(t, ts2, id, "done")
	_, got := request(t, ts2, "GET", "/api/campaigns/"+id+"/report", nil)
	want := goldenDoc(t, func(c *cli.Config) {
		c.Seed, c.Programs, c.Workers, c.Compilers = 1, 300, 2, []string{"groovyc"}
	})
	if !bytes.Equal(got, want) {
		t.Error("report after pause+drain+restart+resume differs from uninterrupted in-process run")
	}
}

// TestServerDrainRehostsQueuedCampaign: drain pauses the running
// campaign mid-run (the SIGTERM path) and leaves the queued one
// unstarted; after a restart the first inspects paused and the second
// new, both suspended, and POST …/resume runs each to its uninterrupted
// run's report.
func TestServerDrainRehostsQueuedCampaign(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{DataDir: dir, MaxRunning: 1})
	running := submit(t, ts1, map[string]any{
		"seed": 1, "programs": 300, "workers": 1, "compilers": []string{"groovyc"},
	})
	queued := submit(t, ts1, map[string]any{
		"seed": 2, "programs": 20, "workers": 1, "compilers": []string{"groovyc"},
	})
	if v := inspect(t, ts1, queued); v.Status.State != "new" || !v.Queued || v.Suspended {
		t.Fatalf("second campaign behind one slot inspects as %+v, want new and queued", v)
	}
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before := inspect(t, ts1, running)
	if before.Status.State != "paused" || !before.Suspended {
		t.Errorf("drained campaign inspects as %+v, want paused and suspended", before)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Options{DataDir: dir, Resume: true})
	defer s2.Close()
	if after := inspect(t, ts2, running); after != before {
		t.Errorf("re-hosted drained campaign inspects as %+v, want %+v as before the restart", after, before)
	}
	if v := inspect(t, ts2, queued); v.Status.State != "new" || v.Queued || !v.Suspended {
		t.Fatalf("re-hosted queued campaign inspects as %+v, want new, suspended and not queued", v)
	}
	for _, id := range []string{running, queued} {
		if code, raw := request(t, ts2, "POST", "/api/campaigns/"+id+"/resume", nil); code != http.StatusOK {
			t.Fatalf("resume %s after restart: status %d: %s", id, code, raw)
		}
	}
	for _, c := range []struct {
		id       string
		seed     int64
		programs int
	}{{running, 1, 300}, {queued, 2, 20}} {
		waitState(t, ts2, c.id, "done")
		_, got := request(t, ts2, "GET", "/api/campaigns/"+c.id+"/report", nil)
		want := goldenDoc(t, func(cfg *cli.Config) {
			cfg.Seed, cfg.Programs, cfg.Workers, cfg.Compilers = c.seed, c.programs, 1, []string{"groovyc"}
		})
		if !bytes.Equal(got, want) {
			t.Errorf("report of re-hosted campaign %s (seed %d) differs from the uninterrupted in-process run", c.id, c.seed)
		}
	}
}

// TestServerResumeRefusesQueuedCampaign: a paused campaign resumed
// behind a full slot is queued, not suspended, so a second resume is
// refused with 409 rather than queueing it twice; once it runs, a pause
// holds.
func TestServerResumeRefusesQueuedCampaign(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir(), MaxRunning: 1})
	cfg := map[string]any{"programs": 2000, "workers": 1, "compilers": []string{"groovyc"}}
	cfg["seed"] = 1
	paused := submit(t, ts, cfg)
	if code, raw := request(t, ts, "POST", "/api/campaigns/"+paused+"/pause", nil); code != http.StatusOK {
		t.Fatalf("pause: status %d: %s", code, raw)
	}
	cfg["seed"] = 2
	holder := submit(t, ts, cfg)
	if got := state(t, ts, holder); got != "running" {
		t.Fatalf("second campaign is %s, want running in the freed slot", got)
	}

	path := "/api/campaigns/" + paused + "/resume"
	if code, raw := request(t, ts, "POST", path, nil); code != http.StatusOK {
		t.Fatalf("first resume: status %d: %s", code, raw)
	}
	if v := inspect(t, ts, paused); v.Status.State != "paused" || !v.Queued || v.Suspended {
		t.Fatalf("resumed campaign behind a full slot inspects as %+v, want paused, queued, not suspended", v)
	}
	if code, raw := request(t, ts, "POST", path, nil); code != http.StatusConflict {
		t.Fatalf("second resume of a queued campaign: status %d, want 409: %s", code, raw)
	}

	// Freeing the slot runs the queued campaign; pausing it again holds,
	// since no stale queue entry is left to restart it.
	if code, raw := request(t, ts, "POST", "/api/campaigns/"+holder+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", code, raw)
	}
	waitState(t, ts, paused, "running")
	if code, raw := request(t, ts, "POST", "/api/campaigns/"+paused+"/pause", nil); code != http.StatusOK {
		t.Fatalf("second pause: status %d: %s", code, raw)
	}
	if v := inspect(t, ts, paused); v.Status.State != "paused" || v.Queued || !v.Suspended {
		t.Errorf("campaign paused again inspects as %+v, want paused and suspended", v)
	}
}

// TestServerPauseNeedsDataDir: a server without a data directory keeps
// no journal to suspend into, so pause is refused with 409 and the
// campaign runs on to done.
func TestServerPauseNeedsDataDir(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, map[string]any{
		"seed": 1, "programs": 40, "workers": 1, "compilers": []string{"groovyc"},
	})
	if code, raw := request(t, ts, "POST", "/api/campaigns/"+id+"/pause", nil); code != http.StatusConflict {
		t.Errorf("pause without a data directory: status %d, want 409: %s", code, raw)
	}
	waitState(t, ts, id, "done")
}

// addTenantKeys rewrites a manifest as an older server wrote it, with a
// "tenant" key in every campaign entry.
func addTenantKeys(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range m["campaigns"].([]any) {
		e.(map[string]any)["tenant"] = "default"
	}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServerDebugEndpoints: each campaign's instruments live in the
// server registry under the campaign's ID, served at /debug/server/.
func TestServerDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, map[string]any{
		"seed": 1, "programs": 10, "compilers": []string{"groovyc"},
	})
	waitState(t, ts, id, "done")
	code, raw := request(t, ts, "GET", "/debug/server/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("server metrics: status %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, section := range snap {
		if m, ok := section.(map[string]any); ok {
			for name := range m {
				if strings.HasPrefix(name, id+".") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("no %s.* instruments in the server registry: %s", id, raw)
	}
	if code, _ := request(t, ts, "GET", "/healthz", nil); code != http.StatusOK {
		t.Error("healthz failed")
	}
}

// sseHandlerCount counts live handleEvents goroutines via the
// goroutine profile.
func sseHandlerCount(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	return strings.Count(buf.String(), "(*Server).handleEvents")
}

// TestServerSSEClientDisconnect drops an SSE consumer mid-stream and
// requires two things: the streaming goroutine exits (no leak per
// abandoned browser tab, over a months-long campaign), and the
// campaign itself is completely unaffected — the stream is
// observational, so a vanishing consumer must never cancel or stall
// the work it was watching.
func TestServerSSEClientDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Options{Heartbeat: 20 * time.Millisecond})
	id := submit(t, ts, map[string]any{
		"seed": 7, "programs": 150, "workers": 2, "compilers": []string{"groovyc"},
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read at least one event so the stream is provably live, then
	// vanish without warning.
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	sawEvent := false
	for scanner.Scan() {
		if strings.HasPrefix(scanner.Text(), "event: ") {
			sawEvent = true
			break
		}
	}
	if !sawEvent {
		t.Fatal("stream produced no events before disconnect")
	}
	if n := sseHandlerCount(t); n == 0 {
		t.Fatal("no live SSE handler while the stream is open")
	}
	cancel()

	deadline := time.Now().Add(10 * time.Second)
	for sseHandlerCount(t) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler goroutine leaked after client disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The campaign never noticed: it is still running or finished, and
	// a fresh consumer can attach and see it through to done.
	if got := state(t, ts, id); got != "running" && got != "done" {
		t.Fatalf("campaign state %q after SSE disconnect, want running or done", got)
	}
	waitState(t, ts, id, "done")
}

// TestServerDocsWriteIndentedJSON pins the bytes of the server's two
// documents — indented JSON with a trailing newline — and that the
// atomic write leaves no temporary file behind.
func TestServerDocsWriteIndentedJSON(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Options{DataDir: dir})
	s.mu.Lock()
	s.nextID = 7
	s.saveManifestLocked()
	s.saveCorpusLocked()
	s.mu.Unlock()

	for name, v := range map[string]any{manifestDoc: manifest{NextID: 7}, corpusDoc: campaign.NewCorpus()} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("%s = %q, want %q", name, got, append(want, '\n'))
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}
