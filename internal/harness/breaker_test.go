package harness

import (
	"sync"
	"testing"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(3, 2)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied compile %d", i)
		}
		b.Record(false)
		if b.State() != BreakerClosed {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.Allow()
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("breaker closed after 3 consecutive failures")
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b := NewBreaker(3, 2)
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Record(i%2 == 0) // alternate success/failure: never 3 in a row
	}
	if b.State() != BreakerOpen && b.State() != BreakerClosed {
		t.Fatalf("unexpected state %s", b.State())
	}
	if b.State() != BreakerClosed {
		t.Fatal("breaker opened without 3 consecutive failures")
	}
}

func TestBreakerCooldownThenHalfOpen(t *testing.T) {
	b := NewBreaker(1, 3)
	b.Allow()
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("breaker should open at threshold 1")
	}
	// Three compiles are quarantined during the cooldown.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("open breaker admitted compile %d during cooldown", i)
		}
	}
	// The third is admitted as the half-open probe.
	if !b.Allow() {
		t.Fatal("breaker should probe half-open after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker should admit")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b := NewBreaker(1, 1)
	b.Allow()
	b.Record(false) // open
	if b.Allow() {  // serves the 1-compile cooldown
		t.Fatal("open breaker admitted during cooldown")
	}
	if !b.Allow() { // cooldown served: this admission is the probe
		t.Fatal("probe not admitted after cooldown")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	// The cooldown restarts from zero.
	if b.Allow() {
		t.Fatal("re-opened breaker admitted during restarted cooldown")
	}
	if !b.Allow() {
		t.Fatal("second probe not admitted after restarted cooldown")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %s, want closed", b.State())
	}
}

func TestBreakerDisabledAlwaysAdmits(t *testing.T) {
	b := NewBreaker(0, 0)
	for i := 0; i < 100; i++ {
		if !b.Allow() {
			t.Fatal("disabled breaker denied a compile")
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("disabled breaker state = %s, want closed", b.State())
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	// Exercised under -race: concurrent Allow/Record must not corrupt
	// the state machine into an impossible position.
	b := NewBreaker(5, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					b.Record((i+w)%3 != 0)
				}
			}
		}(w)
	}
	wg.Wait()
	switch b.State() {
	case BreakerClosed, BreakerOpen, BreakerHalfOpen:
	default:
		t.Fatalf("impossible breaker state %d", b.State())
	}
}

// TestBreakerExportImportRoundTrip pins what a resumed campaign relies
// on instead of importing positions: a breaker's position is a pure
// function of its Allow/Record call sequence, so a fresh breaker fed the
// same calls (replayed from the journal) exports the same position at
// every step.
func TestBreakerExportImportRoundTrip(t *testing.T) {
	live := NewBreaker(3, 4)
	replayed := NewBreaker(3, 4)
	step := func(label string, call func(b *Breaker)) {
		t.Helper()
		call(live)
		call(replayed)
		if got, want := replayed.Export(), live.Export(); got != want {
			t.Fatalf("%s: replayed position %+v, live %+v", label, got, want)
		}
	}
	fail := func(b *Breaker) { b.Record(false) }
	step("first failure", fail)
	step("second failure", fail)
	if snap := live.Export(); snap.State != BreakerClosed || snap.Failures != 2 {
		t.Fatalf("export = %+v, want closed with 2 failures", snap)
	}
	step("third failure", fail)
	if live.State() != BreakerOpen {
		t.Fatalf("breaker did not open at threshold: %s", live.State())
	}
	skip := func(b *Breaker) { b.Allow() }
	step("first skip", skip)
	step("second skip", skip)
	if snap := live.Export(); snap.State != BreakerOpen || snap.Skipped != 2 {
		t.Fatalf("export = %+v, want open with 2 skipped", snap)
	}
	step("third skip", skip)
	step("fourth skip", skip)
	step("probe", skip)
	if replayed.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown probe = %s, want half-open", replayed.State())
	}
}

// TestBreakerImportClearsStaleProbe: a probe admitted by a unit that
// died with the process must not wedge the breaker after a resume. The
// dead unit was never journaled, so the resumed breaker replays only
// the calls before it and the next Allow becomes a fresh probe.
func TestBreakerImportClearsStaleProbe(t *testing.T) {
	b := NewBreaker(1, 1)
	b.Record(false) // open
	b.Allow()       // serve cooldown
	if !b.Allow() {
		t.Fatal("expected the half-open probe admission")
	}
	if snap := b.Export(); snap.State != BreakerHalfOpen {
		t.Fatalf("export = %+v, want half-open", snap)
	}
	if b.Allow() {
		t.Fatal("a second probe was admitted while one is in flight")
	}
	resumed := NewBreaker(1, 1)
	resumed.Record(false)
	resumed.Allow()
	if !resumed.Allow() {
		t.Fatal("resumed breaker refused the fresh probe")
	}
}
