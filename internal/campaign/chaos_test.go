package campaign

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/oracle"
)

// chaosSoakOptions is a campaign with every fault kind injected at 10%:
// panics (sandbox), hangs (watchdog), transients (retry/backoff), and
// flaky verdicts (double-compile probe). The breaker stays disabled
// here — quarantine depends on failure arrival order, and this test's
// contract is a bit-for-bit deterministic report across worker counts.
// The watchdog sits far above any real compile, so a starved compile on
// a loaded machine never turns into a timeout the other run lacks;
// injected hangs still end TimedOut, at once.
func chaosSoakOptions(programs int) Options {
	o := smallOptions(programs)
	o.Harness = harness.Options{
		Timeout:       10 * time.Second,
		Retries:       2,
		BackoffBase:   time.Microsecond,
		Seed:          1,
		DoubleCompile: true,
	}
	o.Chaos = &harness.ChaosOptions{
		Seed:          1,
		PanicRate:     0.10,
		HangRate:      0.10,
		TransientRate: 0.10,
		FlakyRate:     0.10,
		HangDuration:  30 * time.Second, // beyond the watchdog: every hang must time out
	}
	return o
}

func TestChaosSoakCompletesAndIsDeterministic(t *testing.T) {
	o1 := chaosSoakOptions(20)
	o1.Workers = 1
	o2 := chaosSoakOptions(20)
	o2.Workers = 8
	r1 := Run(o1)
	r2 := Run(o2)
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("chaos campaign did not complete: %v / %v", r1.Err, r2.Err)
	}
	// The determinism contract survives 10% injected faults: fault
	// decisions are keyed on (seed, compiler, invocation), never on
	// arrival order, and the ledger folds in unit order.
	if !reflect.DeepEqual(r1.Found, r2.Found) {
		t.Errorf("Found differs between 1 and 8 workers under chaos")
	}
	if !reflect.DeepEqual(r1.Verdicts, r2.Verdicts) {
		t.Errorf("Verdicts differ between 1 and 8 workers under chaos")
	}
	if !reflect.DeepEqual(r1.ProgramsRun, r2.ProgramsRun) {
		t.Errorf("ProgramsRun differs: %v vs %v", r1.ProgramsRun, r2.ProgramsRun)
	}
	if !reflect.DeepEqual(r1.Faults, r2.Faults) {
		t.Errorf("fault ledger differs between 1 and 8 workers:\n%v\nvs\n%v", r1.Faults, r2.Faults)
	}

	// Every injected fault is accounted for in the ledger.
	rec := r1.Faults.PerCompiler["groovyc"]
	inj := r1.Faults.Injected["groovyc"]
	if rec == nil {
		t.Fatal("no fault record for the compiler under chaos")
	}
	if inj.Panics == 0 || inj.Hangs == 0 || inj.Transients == 0 || inj.Flips == 0 {
		t.Fatalf("expected every fault kind injected at 10%%: %+v", inj)
	}
	if int64(rec.Crashes) != inj.Panics {
		t.Errorf("sandboxed crashes = %d, injected panics = %d", rec.Crashes, inj.Panics)
	}
	if int64(rec.Timeouts) != inj.Hangs {
		t.Errorf("watchdog timeouts = %d, injected hangs = %d", rec.Timeouts, inj.Hangs)
	}
	if int64(rec.Retries) != inj.Transients {
		t.Errorf("retries = %d, injected transients = %d", rec.Retries, inj.Transients)
	}
	if int64(rec.Flaky) != inj.Flips {
		t.Errorf("flaky verdicts = %d, injected flips = %d", rec.Flaky, inj.Flips)
	}

	// Hangs surface as the oracle's hang verdict — a reportable bug
	// class distinct from crashes.
	hangs := 0
	for _, perKind := range r1.Verdicts["groovyc"] {
		hangs += perKind[oracle.CompilerHang]
	}
	if hangs != rec.Timeouts {
		t.Errorf("hang verdicts = %d, want %d (one per timeout)", hangs, rec.Timeouts)
	}
	if !r1.Faults.Faults() {
		t.Error("ledger claims a fault-free run")
	}
}

// breakerChaosOptions is a campaign whose only compiler panics on 90%
// of compiles behind a breaker with threshold 2 and cooldown 3.
// Workers=1 keeps breaker decisions (which depend on failure arrival
// order) reproducible run-to-run.
func breakerChaosOptions() Options {
	o := smallOptions(10)
	o.Workers = 1
	o.Harness = harness.Options{
		Timeout:          10 * time.Second,
		Seed:             1,
		BreakerThreshold: 2,
		BreakerCooldown:  3,
	}
	o.Chaos = &harness.ChaosOptions{Seed: 1, PanicRate: 0.9}
	return o
}

func TestChaosBreakerQuarantinesAndRecordsGaps(t *testing.T) {
	// A compiler that panics on 90% of compiles trips its breaker; the
	// campaign must complete anyway, recording quarantined compiles as
	// gaps.
	r1 := Run(breakerChaosOptions())
	if r1.Err != nil {
		t.Fatalf("campaign with a 90%%-down compiler did not complete: %v", r1.Err)
	}
	rec := r1.Faults.PerCompiler["groovyc"]
	if rec == nil || rec.Crashes == 0 {
		t.Fatalf("expected sandboxed crashes, got %+v", rec)
	}
	if rec.Quarantined == 0 {
		t.Fatalf("breaker never quarantined despite 90%% crash rate: %+v", rec)
	}
	if rec.Gaps() != rec.Quarantined+rec.Errored {
		t.Errorf("gap accounting inconsistent: %+v", rec)
	}
	// Degradation is graceful and reproducible at a fixed worker count.
	r2 := Run(breakerChaosOptions())
	if !reflect.DeepEqual(r1.Faults, r2.Faults) {
		t.Errorf("single-worker chaos runs disagree:\n%v\nvs\n%v", r1.Faults, r2.Faults)
	}
	if !reflect.DeepEqual(r1.Verdicts, r2.Verdicts) {
		t.Errorf("single-worker chaos verdicts disagree")
	}
}

// TestChaosBreakerRetriesCountOnlyInvocationsThatRan: in a
// breaker-tripping campaign the ledger's retries are never negative and
// equal the retries of the compiles that ran, summed from the journal;
// a quarantined compile made no attempt.
func TestChaosBreakerRetriesCountOnlyInvocationsThatRan(t *testing.T) {
	o := breakerChaosOptions()
	o.StateDir = t.TempDir()
	r := Run(o)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	want := map[string]int{}
	store, err := journal.Open(o.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Replay(func(_ int64, payload []byte) error {
		var rec unitRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		for _, g := range rec.Gaps {
			if g.Attempts > 0 {
				want[g.Compiler] += g.Attempts - 1
			}
		}
		for _, e := range rec.Execs {
			want[e.Compiler] += e.Attempts - 1
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if r.Faults.PerCompiler["groovyc"].Quarantined == 0 {
		t.Fatal("breaker never quarantined; the test would be vacuous")
	}
	for name, rec := range r.Faults.PerCompiler {
		if rec.Retries < 0 || rec.Retries != want[name] {
			t.Errorf("%s: ledger retries %d, want %d summed over the compiles that ran", name, rec.Retries, want[name])
		}
	}
}

func TestChaosFreeCampaignHasCleanLedger(t *testing.T) {
	r := Run(smallOptions(10))
	if r.Faults == nil {
		t.Fatal("report has no ledger")
	}
	if r.Faults.Faults() {
		t.Errorf("chaos-free campaign recorded harness faults:\n%v", r.Faults)
	}
	total := r.Faults.Total()
	if total.Compiles == 0 {
		t.Error("ledger recorded no compiles")
	}
}
