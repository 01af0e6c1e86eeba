package oracle_test

import (
	"fmt"
	"testing"

	"repro/internal/compilers"
	"repro/internal/oracle"
)

var allKinds = []oracle.InputKind{
	oracle.Generated, oracle.TEMMutant, oracle.TOMMutant,
	oracle.TEMTOMMutant, oracle.Suite, oracle.REMMutant,
	oracle.Synthesized,
}

var allStatuses = []compilers.Status{
	compilers.OK, compilers.Rejected, compilers.Crashed, compilers.TimedOut,
	compilers.ResourceExhausted,
}

// TestJudgeMatrix pins the oracle over the full InputKind × Status
// space: crashes and hangs are bugs whatever the derivation (notably
// a TimedOut rejection path for an ill-typed mutant is still a hang,
// never a pass), a governor bailout is a deterministic ResourceExhausted
// finding whatever the derivation (an exhausted TOM mutant is not a
// pass: the compiler never reached a verdict to compare), well-typed
// kinds must compile, ill-typed kinds must be rejected.
func TestJudgeMatrix(t *testing.T) {
	want := map[oracle.InputKind]map[compilers.Status]oracle.Verdict{
		oracle.Generated: {
			compilers.OK:                oracle.Pass,
			compilers.Rejected:          oracle.UnexpectedCompileTimeError,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
		oracle.TEMMutant: {
			compilers.OK:                oracle.Pass,
			compilers.Rejected:          oracle.UnexpectedCompileTimeError,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
		oracle.TOMMutant: {
			compilers.OK:                oracle.UnexpectedAcceptance,
			compilers.Rejected:          oracle.Pass,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
		oracle.TEMTOMMutant: {
			compilers.OK:                oracle.UnexpectedAcceptance,
			compilers.Rejected:          oracle.Pass,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
		oracle.Suite: {
			compilers.OK:                oracle.Pass,
			compilers.Rejected:          oracle.UnexpectedCompileTimeError,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
		oracle.REMMutant: {
			compilers.OK:                oracle.Pass,
			compilers.Rejected:          oracle.UnexpectedCompileTimeError,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
		oracle.Synthesized: {
			compilers.OK:                oracle.Pass,
			compilers.Rejected:          oracle.UnexpectedCompileTimeError,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		},
	}
	for _, kind := range allKinds {
		for _, status := range allStatuses {
			got := oracle.Judge(kind, &compilers.Result{Status: status})
			if got != want[kind][status] {
				t.Errorf("Judge(%s, %s) = %s, want %s", kind, status, got, want[kind][status])
			}
		}
	}
	// The matrix above must be total over both enums, and allKinds must
	// itself be total over the package's kinds (a new kind added to the
	// oracle without a matrix row fails here, not silently).
	if got := oracle.Kinds(); len(got) != len(allKinds) {
		t.Fatalf("oracle defines %d kinds, test covers %d", len(got), len(allKinds))
	}
	if len(want) != len(allKinds) {
		t.Fatalf("matrix covers %d kinds, want %d", len(want), len(allKinds))
	}
	for kind, byStatus := range want {
		if len(byStatus) != len(allStatuses) {
			t.Fatalf("matrix for %s covers %d statuses, want %d", kind, len(byStatus), len(allStatuses))
		}
	}
	// Unknown(N) fallthrough: the derivation-based oracle abstains.
	// Crashes, hangs, and governor bailouts are still bugs (true under
	// any derivation), but an accept or reject of a program whose
	// derivation we cannot name must never be fabricated into a UCTE
	// or URB — the old code defaulted ExpectCompile to true and would
	// have called every rejected unknown-kind program a bug.
	for _, n := range []int{int(oracle.Synthesized) + 1, 99, -1} {
		kind := oracle.InputKind(n)
		if kind.Known() {
			t.Fatalf("InputKind(%d).Known() = true, want false", n)
		}
		if kind.ExpectCompile() {
			t.Errorf("InputKind(%d).ExpectCompile() = true; unknown kinds carry no expectation", n)
		}
		wantUnknown := map[compilers.Status]oracle.Verdict{
			compilers.OK:                oracle.Pass,
			compilers.Rejected:          oracle.Pass,
			compilers.Crashed:           oracle.CompilerCrash,
			compilers.TimedOut:          oracle.CompilerHang,
			compilers.ResourceExhausted: oracle.ResourceExhausted,
		}
		for _, status := range allStatuses {
			got := oracle.Judge(kind, &compilers.Result{Status: status})
			if got != wantUnknown[status] {
				t.Errorf("Judge(unknown(%d), %s) = %s, want %s", n, status, got, wantUnknown[status])
			}
		}
	}
}

// TestKindCapabilityTable pins every per-kind capability decision. The
// answers used to be scattered as inline special cases (pipeline.Mutate
// skipped stress units, difforacle conformance-checked "non-stress"
// units); now each kind answers each question exactly once, here. A new
// kind fails the totality check until a row is added — and adding the
// kind without a kindSpecs entry does not even compile.
func TestKindCapabilityTable(t *testing.T) {
	type caps struct{ expectCompile, mutable, conformance bool }
	want := map[oracle.InputKind]caps{
		oracle.Generated:    {expectCompile: true, mutable: true, conformance: true},
		oracle.TEMMutant:    {expectCompile: true, mutable: false, conformance: true},
		oracle.TOMMutant:    {expectCompile: false, mutable: false, conformance: true},
		oracle.TEMTOMMutant: {expectCompile: false, mutable: false, conformance: true},
		oracle.Suite:        {expectCompile: true, mutable: true, conformance: true},
		oracle.REMMutant:    {expectCompile: true, mutable: false, conformance: true},
		oracle.Synthesized:  {expectCompile: true, mutable: false, conformance: true},
	}
	kinds := oracle.Kinds()
	if len(want) != len(kinds) {
		t.Fatalf("capability table covers %d kinds, oracle defines %d — add an explicit row", len(want), len(kinds))
	}
	for _, k := range kinds {
		w, ok := want[k]
		if !ok {
			t.Fatalf("kind %s has no explicit capability decision", k)
		}
		if !k.Known() {
			t.Errorf("%s.Known() = false for a defined kind", k)
		}
		if got := k.ExpectCompile(); got != w.expectCompile {
			t.Errorf("%s.ExpectCompile() = %v, want %v", k, got, w.expectCompile)
		}
		if got := k.Mutable(); got != w.mutable {
			t.Errorf("%s.Mutable() = %v, want %v", k, got, w.mutable)
		}
		if got := k.ConformanceCheckable(); got != w.conformance {
			t.Errorf("%s.ConformanceCheckable() = %v, want %v", k, got, w.conformance)
		}
	}
	// Unknown kinds answer every capability conservatively.
	for _, n := range []int{len(kinds), 42, -2} {
		k := oracle.InputKind(n)
		if k.Mutable() || k.ConformanceCheckable() || k.ExpectCompile() || k.Known() {
			t.Errorf("InputKind(%d) must answer false to every capability", n)
		}
	}
}

func TestInputKindStrings(t *testing.T) {
	kinds := map[oracle.InputKind]string{
		oracle.Generated:    "generator",
		oracle.TEMMutant:    "TEM",
		oracle.TOMMutant:    "TOM",
		oracle.TEMTOMMutant: "TEM&TOM",
		oracle.Suite:        "suite",
		oracle.REMMutant:    "REM",
		oracle.Synthesized:  "synthesized",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if oracle.TOMMutant.ExpectCompile() || !oracle.Generated.ExpectCompile() {
		t.Error("ExpectCompile wrong")
	}
	verdicts := map[oracle.Verdict]string{
		oracle.Pass:                       "pass",
		oracle.UnexpectedCompileTimeError: "UCTE",
		oracle.UnexpectedAcceptance:       "URB",
		oracle.CompilerCrash:              "crash",
		oracle.CompilerHang:               "hang",
		oracle.ResourceExhausted:          "exhausted",
		oracle.Disagreement:               "disagreement",
	}
	for v, want := range verdicts {
		if v.String() != want {
			t.Errorf("verdict %d = %q, want %q", v, v.String(), want)
		}
	}
}

// TestUnknownValuesNeverMislabel pins the fallthrough fix: a future
// InputKind must not masquerade as "suite" in corpus keys or reports,
// nor a future Verdict as "crash" in figures and the event trace.
func TestUnknownValuesNeverMislabel(t *testing.T) {
	for _, n := range []int{7, 8, 99, -1} {
		if got, want := oracle.InputKind(n).String(), fmt.Sprintf("unknown(%d)", n); got != want {
			t.Errorf("InputKind(%d).String() = %q, want %q", n, got, want)
		}
	}
	for _, n := range []int{7, 42, -3} {
		if got, want := oracle.Verdict(n).String(), fmt.Sprintf("unknown(%d)", n); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", n, got, want)
		}
	}
	// The compilers.Status fallthrough got the same treatment when
	// ResourceExhausted was added: a future status reads unknown(N), and
	// the new members render distinctly.
	for _, n := range []int{5, 17, -1} {
		if got, want := compilers.Status(n).String(), fmt.Sprintf("unknown(%d)", n); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", n, got, want)
		}
	}
	if got := compilers.ResourceExhausted.String(); got != "resource exhausted" {
		t.Errorf("ResourceExhausted.String() = %q", got)
	}
	if got := compilers.Crashed.String(); got != "crashed" {
		t.Errorf("Crashed.String() = %q", got)
	}
}

// TestKindSet: Add/Has/Kinds over every defined kind and the unknown
// kinds a newer build's journal may carry; kinds outside 0–63 are
// dropped rather than aliased onto another bit.
func TestKindSet(t *testing.T) {
	var s oracle.KindSet
	if len(s.Kinds()) != 0 {
		t.Fatalf("empty set lists %v", s.Kinds())
	}
	for _, k := range []oracle.InputKind{63, oracle.TOMMutant, 9, oracle.Generated, oracle.TOMMutant, -1, 64, 200} {
		s.Add(k)
	}
	want := []oracle.InputKind{oracle.Generated, oracle.TOMMutant, 9, 63}
	if got := s.Kinds(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for _, k := range want {
		if !s.Has(k) {
			t.Errorf("Has(%v) = false", k)
		}
	}
	for _, k := range []oracle.InputKind{oracle.TEMMutant, -1, 64, 200} {
		if s.Has(k) {
			t.Errorf("Has(%d) = true", int(k))
		}
	}
}
