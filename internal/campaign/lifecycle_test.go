package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runWithPauses drives a durable campaign through repeated
// pause/Start cycles — each pause requested at a random wall-clock
// instant — until it completes, asserting the paused invariants at
// every suspension point.
func runWithPauses(t *testing.T, opts Options, seed int64, cycles, maxPauseMS int) *Report {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New(opts)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		time.Sleep(time.Duration(1+rng.Intn(maxPauseMS)) * time.Millisecond)
		err := c.Pause()
		if err != nil {
			// The campaign finished (or a later cycle caught it pausing);
			// either way it is no longer pausable and Wait settles it.
			break
		}
		if c.State() == StateDone {
			// The segment finished while the pause was in flight; a
			// finished campaign stays finished (see Pause).
			break
		}
		if st := c.State(); st != StatePaused {
			t.Fatalf("after Pause: state %s, want paused", st)
		}
		r := c.Report()
		if r == nil {
			t.Fatal("paused campaign has no report")
		}
		if r.Complete() {
			t.Fatal("paused campaign claims a complete report")
		}
		if st := c.Status(); st.State != StatePaused {
			t.Fatalf("paused Status.State = %s", st.State)
		}
		if err := c.Start(context.Background()); err != nil {
			t.Fatalf("Start after Pause: %v", err)
		}
	}
	r, err := c.Wait()
	if err != nil {
		t.Fatalf("campaign did not complete: %v", err)
	}
	if st := c.State(); st != StateDone {
		t.Fatalf("final state %s, want done", st)
	}
	return r
}

func TestLifecyclePauseResumeDeterminism(t *testing.T) {
	golden := Run(smallOptions(30))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	goldenDoc, err := json.Marshal(golden.Doc())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		o := smallOptions(30)
		o.Workers = workers
		o.StateDir = t.TempDir()
		r := runWithPauses(t, o, int64(3000+workers), 6, 120)
		assertSameOutcome(t, "pause-resume", golden, r)
		doc, err := json.Marshal(r.Doc())
		if err != nil {
			t.Fatal(err)
		}
		if string(doc) != string(goldenDoc) {
			t.Errorf("workers=%d: report document differs from uninterrupted run:\n%s\nvs\n%s",
				workers, doc, goldenDoc)
		}
	}
}

func TestLifecyclePauseResumeUnderChaos(t *testing.T) {
	golden := Run(chaosSoakOptions(12))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	for _, workers := range []int{1, 8} {
		o := chaosSoakOptions(12)
		o.Workers = workers
		o.StateDir = t.TempDir()
		r := runWithPauses(t, o, int64(4000+workers), 5, 900)
		assertSameOutcome(t, "chaos pause-resume", golden, r)
	}
}

func TestLifecycleStatusDuringRun(t *testing.T) {
	// Status must be safe and coherent while the fold is writing — this
	// test is most meaningful under -race.
	o := smallOptions(40)
	o.Workers = 4
	c := New(o)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevUnits := 0
			for {
				select {
				case <-c.Done():
					return
				default:
				}
				s := c.Status()
				if s.Units < prevUnits {
					t.Errorf("Status.Units went backwards: %d after %d", s.Units, prevUnits)
					return
				}
				prevUnits = s.Units
				if s.Units > 0 && s.Execs == 0 {
					t.Error("Status has folded units but no executions")
					return
				}
				if len(s.BugRate) > 0 && s.Bugs != s.BugRate[len(s.BugRate)-1].CumulativeBugs {
					t.Errorf("Status.Bugs = %d but series ends at %d",
						s.Bugs, s.BugRate[len(s.BugRate)-1].CumulativeBugs)
					return
				}
			}
		}()
	}
	r, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s := c.Status()
	if s.State != StateDone || s.Units != 40 || s.Bugs != len(r.Found) {
		t.Errorf("terminal Status = %+v, want done/40 units/%d bugs", s, len(r.Found))
	}
	golden := Run(smallOptions(40))
	assertSameOutcome(t, "status-observed run", golden, r)
}

func TestLifecycleCancelReturnsPartialReport(t *testing.T) {
	o := smallOptions(400)
	o.Workers = 2
	c := New(o)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	r, err := c.Wait()
	if err == nil {
		t.Skip("campaign finished before the cancel fired")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if c.State() != StateCancelled {
		t.Fatalf("state %s, want cancelled", c.State())
	}
	if r == nil {
		t.Fatal("cancelled campaign returned no partial report")
	}
	if r.Complete() {
		t.Fatal("cancelled campaign claims completeness")
	}
	if doc := r.Doc(); doc.Complete || doc.Error == "" {
		t.Errorf("cancelled report document: %+v, want incomplete with error", doc)
	}
	// Cancel again is a no-op on a terminal campaign.
	if err := c.Cancel(); err != nil {
		t.Fatalf("Cancel on terminal campaign: %v", err)
	}
}

func TestLifecycleStateErrors(t *testing.T) {
	// Pause without a state directory: nothing durable to pause into.
	c := New(smallOptions(5))
	if err := c.Pause(); !errors.Is(err, ErrNotPausable) {
		t.Errorf("Pause on non-durable campaign: %v, want ErrNotPausable", err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Start refuses a running campaign.
	if err := c.Start(context.Background()); err == nil {
		t.Error("second Start succeeded")
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	// A finished campaign refuses Pause and Start.
	o := smallOptions(5)
	o.StateDir = t.TempDir()
	d := New(o)
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := d.Pause(); err == nil {
		t.Error("Pause on done campaign succeeded")
	}
	if err := d.Start(context.Background()); err == nil {
		t.Error("Start on done campaign succeeded")
	}
}

func TestLifecycleCancelBeforeStart(t *testing.T) {
	c := New(smallOptions(5))
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateCancelled {
		t.Fatalf("state %s, want cancelled", c.State())
	}
	if _, err := c.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if err := c.Start(context.Background()); err == nil {
		t.Error("Start after Cancel succeeded")
	}
}

func TestLifecyclePausedCampaignResumableByNewProcess(t *testing.T) {
	// A paused campaign is exactly a crash-suspended one: a fresh
	// Campaign over the same state dir with Resume set is paused at the
	// same unit count, and Start finishes it.
	golden := Run(smallOptions(25))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	dir := t.TempDir()
	o := smallOptions(25)
	o.StateDir = dir
	c := New(o)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := c.Pause(); err != nil {
		// Finished before the pause; the "new process" then just
		// re-resumes a finished campaign (idempotent).
		if _, werr := c.Wait(); werr != nil {
			t.Fatal(werr)
		}
	}
	paused := c.Status().Units
	o2 := smallOptions(25)
	o2.StateDir = dir
	o2.Resume = true
	c2 := New(o2)
	if st := c2.Status(); st.State != StatePaused || st.Units != paused {
		t.Fatalf("New over the paused directory: state %s with %d units, want paused with %d", st.State, st.Units, paused)
	}
	if err := c2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := c2.Wait()
	if err != nil {
		t.Fatalf("cross-process resume: %v", err)
	}
	assertSameOutcome(t, "cross-process resume of paused campaign", golden, r)
	goldenDoc, err := json.Marshal(golden.Doc())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(r.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != string(goldenDoc) {
		t.Errorf("cross-process resume: report document differs from uninterrupted run:\n%s\nvs\n%s", doc, goldenDoc)
	}
}

func TestLifecycleGateBackpressure(t *testing.T) {
	// A blocking gate must stall the campaign without breaking it, and
	// gate scheduling must not change the report.
	golden := Run(smallOptions(15))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	var admitted int32
	release := make(chan struct{})
	o := smallOptions(15)
	o.Workers = 4
	o.Gate = func(ctx context.Context) error {
		admitted++
		if int(admitted) == 5 {
			// Hold the source mid-campaign until the test releases it.
			select {
			case <-release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	c := New(o)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// While the gate is held the campaign must stay running, not fail.
	time.Sleep(30 * time.Millisecond)
	if st := c.State(); st != StateRunning {
		t.Fatalf("state %s while gate held, want running", st)
	}
	close(release)
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "gated run", golden, r)
}

func TestReportDocDeterministic(t *testing.T) {
	a := Run(smallOptions(20))
	b := Run(smallOptions(20))
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	da, err := json.Marshal(a.Doc())
	if err != nil {
		t.Fatal(err)
	}
	db, err := json.Marshal(b.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Errorf("same options, different report documents:\n%s\nvs\n%s", da, db)
	}
	doc := a.Doc()
	if !doc.Complete || doc.Programs != 20 || len(doc.Bugs) != len(a.Found) {
		t.Errorf("document mis-projects the report: %+v", doc)
	}
	for i := 1; i < len(doc.Bugs); i++ {
		p, q := doc.Bugs[i-1], doc.Bugs[i]
		if p.Compiler > q.Compiler || (p.Compiler == q.Compiler && p.ID >= q.ID) {
			t.Errorf("document bugs not sorted: %v before %v", p, q)
		}
	}
}

func TestCorpusMergeReport(t *testing.T) {
	a := Run(smallOptions(15))
	o := smallOptions(15)
	o.Seed = 500
	b := Run(o)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	corpus := NewCorpus()
	corpus.MergeReport(a)
	corpus.MergeReport(b)
	reversed := NewCorpus()
	reversed.MergeReport(b)
	reversed.MergeReport(a)
	if !reflect.DeepEqual(corpus, reversed) {
		t.Error("corpus merge is order-dependent")
	}
	if corpus.Campaigns != 2 {
		t.Errorf("Campaigns = %d, want 2", corpus.Campaigns)
	}
	for id, rec := range a.Found {
		e := corpus.Bugs[id]
		if e == nil {
			t.Errorf("merge lost bug %s", id)
			continue
		}
		if other, ok := b.Found[id]; ok {
			if e.Hits != rec.Hits+other.Hits {
				t.Errorf("bug %s hits not additive", id)
			}
			if e.Campaigns != 2 {
				t.Errorf("bug %s Campaigns = %d, want 2", id, e.Campaigns)
			}
		}
	}
}

// TestLifecyclePauseRacesCompletion drives Pause squarely into the
// completion window: the pause is requested only after every unit has
// folded, so the segment is finishing — or already finished —
// underneath it. Whatever interleaving lands, the campaign must settle
// coherently: paused (then startable to done) or done, never wedged
// mid-drain, with Wait unblocking and the completed report intact.
// Meaningful under -race.
func TestLifecyclePauseRacesCompletion(t *testing.T) {
	for i := 0; i < 8; i++ {
		o := smallOptions(10)
		o.Workers = 4
		o.StateDir = t.TempDir()
		c := New(o)
		if err := c.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for c.Status().Units < o.Programs {
			if time.Now().After(deadline) {
				t.Fatal("campaign never folded all its units")
			}
			time.Sleep(200 * time.Microsecond)
		}
		pauseErr := c.Pause()
		switch st := c.State(); st {
		case StatePaused:
			// Pause won the race; the suspension must be resumable.
			if pauseErr != nil {
				t.Fatalf("iteration %d: paused, yet Pause returned %v", i, pauseErr)
			}
			if err := c.Start(context.Background()); err != nil {
				t.Fatalf("iteration %d: Start after racing pause: %v", i, err)
			}
		case StateDone:
			// Completion won; a finished campaign stays finished whether
			// Pause returned nil (requested mid-drain) or a state error
			// (requested after settle).
		default:
			t.Fatalf("iteration %d: state %s after Pause returned (Pause err: %v) — incoherent settle",
				i, st, pauseErr)
		}
		r, err := c.Wait()
		if err != nil {
			t.Fatalf("iteration %d: Wait after racing pause: %v", i, err)
		}
		if !r.Complete() {
			t.Errorf("iteration %d: completed campaign's report is not complete", i)
		}
		if st := c.State(); st != StateDone {
			t.Errorf("iteration %d: final state %s, want done", i, st)
		}
	}
}
