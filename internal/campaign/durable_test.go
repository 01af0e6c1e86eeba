package campaign

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/compilers"
	"repro/internal/harness"
	"repro/internal/oracle"
)

// assertSameOutcome compares every deterministic report field between a
// golden uninterrupted run and a recovered one.
func assertSameOutcome(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if !reflect.DeepEqual(want.Found, got.Found) {
		t.Errorf("%s: Found differs:\n%+v\nvs\n%+v", label, want.Found, got.Found)
	}
	if !reflect.DeepEqual(want.Verdicts, got.Verdicts) {
		t.Errorf("%s: Verdicts differ", label)
	}
	if !reflect.DeepEqual(want.ProgramsRun, got.ProgramsRun) {
		t.Errorf("%s: ProgramsRun differs: %v vs %v", label, want.ProgramsRun, got.ProgramsRun)
	}
	if !reflect.DeepEqual(want.Faults, got.Faults) {
		t.Errorf("%s: fault ledger differs:\n%v\nvs\n%v", label, want.Faults, got.Faults)
	}
	if want.TEMRepairs != got.TEMRepairs {
		t.Errorf("%s: TEMRepairs = %d, want %d", label, got.TEMRepairs, want.TEMRepairs)
	}
	if !reflect.DeepEqual(want.BugRate, got.BugRate) {
		t.Errorf("%s: bug-rate series differs:\n%+v\nvs\n%+v", label, want.BugRate, got.BugRate)
	}
	if !reflect.DeepEqual(want.BugRateSeries(), got.BugRateSeries()) {
		t.Errorf("%s: derived series differs", label)
	}
}

// mutilateState simulates the disk damage a SIGKILL can leave behind:
// a torn journal tail or a flipped byte mid-journal.
func mutilateState(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	jp := filepath.Join(dir, "journal.wal")
	switch rng.Intn(3) {
	case 0: // torn tail: truncate the journal at a random byte offset
		if info, err := os.Stat(jp); err == nil && info.Size() > 0 {
			if err := os.Truncate(jp, rng.Int63n(info.Size()+1)); err != nil {
				t.Fatal(err)
			}
		}
	case 1: // bit rot: flip one journal byte (quarantine or lost framing)
		if b, err := os.ReadFile(jp); err == nil && len(b) > 0 {
			b[rng.Intn(len(b))] ^= 0x40
			if err := os.WriteFile(jp, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	default:
		// Killed between appends: state is left exactly as the dying
		// run's last fsync had it.
	}
}

// runWithKills drives a durable campaign through repeated kill/resume
// cycles — each cycle cancelled at a random wall-clock instant and,
// with damage set, its on-disk state then damaged — until it completes.
func runWithKills(t *testing.T, opts Options, seed int64, kills int, maxKillMS int, damage bool) *Report {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < kills; i++ {
		o := opts
		o.Resume = i > 0
		d := time.Duration(1+rng.Intn(maxKillMS)) * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		r, err := RunContext(ctx, o)
		cancel()
		if err == nil {
			return r // completed before this cycle's kill fired
		}
		if r == nil {
			t.Fatal("cancelled run returned no partial report")
		}
		if damage {
			mutilateState(t, opts.StateDir, rng)
		}
	}
	o := opts
	o.Resume = true
	r, err := RunContext(context.Background(), o)
	if err != nil {
		t.Fatalf("final resume did not complete: %v", err)
	}
	return r
}

func TestDurableCompleteRunMatchesGolden(t *testing.T) {
	golden := Run(smallOptions(25))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	o := smallOptions(25)
	o.StateDir = t.TempDir()
	r := Run(o)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	assertSameOutcome(t, "durable uninterrupted", golden, r)
	if r.Corpus == nil {
		t.Fatal("durable run returned no corpus")
	}
	if r.Corpus.Campaigns != 1 || len(r.Corpus.Bugs) != len(r.Found) {
		t.Errorf("corpus after one campaign: campaigns=%d bugs=%d, want 1 and %d",
			r.Corpus.Campaigns, len(r.Corpus.Bugs), len(r.Found))
	}
	if r.Recovery.Resumed {
		t.Error("fresh durable run claims it resumed")
	}
}

func TestDurableKillResumeDeterminism(t *testing.T) {
	golden := Run(smallOptions(30))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	for _, workers := range []int{1, 8} {
		o := smallOptions(30)
		o.Workers = workers
		o.StateDir = t.TempDir()
		r := runWithKills(t, o, int64(1000+workers), 6, 120, true)
		assertSameOutcome(t, "kill-resume", golden, r)
	}
}

func TestDurableChaosKillResumeSoak(t *testing.T) {
	golden := Run(chaosSoakOptions(12))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	for _, workers := range []int{1, 8} {
		o := chaosSoakOptions(12)
		o.Workers = workers
		o.StateDir = t.TempDir()
		r := runWithKills(t, o, int64(2000+workers), 5, 2500, true)
		assertSameOutcome(t, "chaos kill-resume", golden, r)
	}
}

// TestDurableBreakerResume pins that circuit-breaker positions survive
// a resume: the resumed run re-derives them from the journal, so kill
// and pause cycles of a breaker-tripping single-worker campaign fold to
// the uninterrupted run's report, quarantine gaps included.
func TestDurableBreakerResume(t *testing.T) {
	golden := Run(breakerChaosOptions())
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	if golden.Faults.PerCompiler["groovyc"].Quarantined == 0 {
		t.Fatal("golden run never quarantined; the test would not exercise breakers")
	}
	o := breakerChaosOptions()
	o.StateDir = t.TempDir()
	r := runWithKills(t, o, 5000, 4, 60, false)
	assertSameOutcome(t, "breaker kill-resume", golden, r)

	o.StateDir = t.TempDir()
	r = runWithPauses(t, o, 5001, 1, 30)
	assertSameOutcome(t, "breaker pause-resume", golden, r)
}

func TestDurableResumeRejectsDifferentCampaign(t *testing.T) {
	dir := t.TempDir()
	o := smallOptions(10)
	o.StateDir = dir
	if r := Run(o); r.Err != nil {
		t.Fatal(r.Err)
	}
	other := smallOptions(20) // different program count: different campaign
	other.StateDir = dir
	other.Resume = true
	r, err := RunContext(context.Background(), other)
	if err == nil || r.Err == nil {
		t.Fatal("resuming a state dir from a different campaign succeeded")
	}
}

func TestDurableResumeOfFinishedCampaignIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	o := smallOptions(15)
	o.StateDir = dir
	first := Run(o)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	o.Resume = true
	again := Run(o)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	assertSameOutcome(t, "resume after completion", first, again)
	if !again.Recovery.Resumed || again.Recovery.Recovered != 15 {
		t.Errorf("expected every unit recovered: %+v", again.Recovery)
	}
	// The corpus merge is guarded: resuming a finished campaign must not
	// double-count its bugs.
	if !reflect.DeepEqual(first.Corpus, again.Corpus) {
		t.Errorf("corpus changed on idempotent resume:\n%+v\nvs\n%+v", first.Corpus, again.Corpus)
	}
}

func TestDurableCorpusAccumulatesAcrossCampaigns(t *testing.T) {
	dir := t.TempDir()
	a := smallOptions(15)
	a.StateDir = dir
	ra := Run(a)
	if ra.Err != nil {
		t.Fatal(ra.Err)
	}
	// A second, distinct campaign in the same state dir: the journal is
	// reset, the corpus is not.
	b := smallOptions(15)
	b.Seed = 500
	b.StateDir = dir
	rb := Run(b)
	if rb.Err != nil {
		t.Fatal(rb.Err)
	}
	if rb.Corpus.Campaigns != 2 {
		t.Fatalf("corpus campaigns = %d, want 2", rb.Corpus.Campaigns)
	}
	for id := range ra.Found {
		if rb.Corpus.Bugs[id] == nil {
			t.Errorf("corpus lost bug %s from the first campaign", id)
		}
	}
	for id, rec := range rb.Found {
		e := rb.Corpus.Bugs[id]
		if e == nil {
			t.Errorf("corpus missing bug %s from the second campaign", id)
			continue
		}
		if e.Hits < rec.Hits {
			t.Errorf("corpus %s hits %d < this campaign's %d", id, e.Hits, rec.Hits)
		}
	}
	// A bug both campaigns hit is one corpus entry with two campaigns.
	for id, ea := range ra.Found {
		if _, ok := rb.Found[id]; ok {
			if got := rb.Corpus.Bugs[id].Campaigns; got != 2 {
				t.Errorf("bug %s seen by both campaigns has Campaigns=%d, want 2", id, got)
			}
			if rb.Corpus.Bugs[id].Hits != ea.Hits+rb.Found[id].Hits {
				t.Errorf("bug %s corpus hits not additive", id)
			}
		}
	}
}

func TestDurablePartialReportSurvivesAbort(t *testing.T) {
	// A run cut short by cancellation must leave a resumable partial
	// state behind and report what it folded so far.
	o := smallOptions(400)
	o.Workers = 2
	o.StateDir = t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	r, err := RunContext(ctx, o)
	if err == nil {
		t.Skip("campaign finished before the abort fired")
	}
	if r.Complete() {
		t.Fatal("aborted run claims completeness")
	}
	// Resume must pick up where the abort left off and agree with an
	// uninterrupted run of a same-shape smaller campaign; here we just
	// assert it completes and covers every seed program.
	o.Resume = true
	r2, err := RunContext(context.Background(), o)
	if err != nil {
		t.Fatalf("resume after abort failed: %v", err)
	}
	if !r2.Recovery.Resumed {
		t.Error("resumed run did not restore state")
	}
	total := 0
	for _, n := range r2.ProgramsRun {
		total += n
	}
	if total < 400 {
		t.Errorf("resumed run folded %d program executions, want at least one per seed", total)
	}
}

// TestRestoreKeepsUnknownKinds: a journal from a newer build may carry
// input kinds this build does not define. Kinds 7–63 fold into the
// report and print as unknown(N); kinds outside 0–63 are dropped from
// the found-by sets, as unknown bug IDs are dropped from Found.
func TestRestoreKeepsUnknownKinds(t *testing.T) {
	comps := compilers.All()
	bugID := comps[0].Catalog()[0].ID
	stored := []oracle.InputKind{oracle.TEMMutant, 9, 63, 64, -1}
	want := []oracle.InputKind{oracle.TEMMutant, 9, 63}

	rec := &unitRecord{Seq: 0, Seed: 4, Inputs: stored}
	for _, k := range stored {
		rec.Execs = append(rec.Execs, execRecord{
			Compiler: comps[0].Name(), Kind: k, Outcome: harness.Completed,
			Bugs: []string{bugID, "no-such-bug"},
		})
		rec.Diffs = append(rec.Diffs, diffRecord{Kind: k, Vec: []laneRecord{{Compiler: "v"}}})
	}
	report := newReport(Options{Compilers: comps})
	agg := &reportAggregator{report: report, bugIndex: bugIndexFor(comps)}
	agg.fold(rec)

	if len(report.Found) != 1 {
		t.Fatalf("folded %d bugs, want 1", len(report.Found))
	}
	if got := report.Found[bugID].FoundBy.Kinds(); !reflect.DeepEqual(got, want) {
		t.Errorf("found_by = %v, want %v", got, want)
	}
	if len(report.Disagreements) != 1 {
		t.Fatalf("folded %d disagreements, want 1", len(report.Disagreements))
	}
	for _, d := range report.Disagreements {
		if got := d.FoundBy.Kinds(); !reflect.DeepEqual(got, want) {
			t.Errorf("diff found_by = %v, want %v", got, want)
		}
	}
	doc := report.Doc()
	wantDoc := []string{"TEM", "unknown(63)", "unknown(9)"}
	if got := doc.Bugs[0].FoundBy; !reflect.DeepEqual(got, wantDoc) {
		t.Errorf("bug doc found_by = %q, want %q", got, wantDoc)
	}
	if got := doc.Disagreements[0].FoundBy; !reflect.DeepEqual(got, wantDoc) {
		t.Errorf("diff doc found_by = %q, want %q", got, wantDoc)
	}
}
