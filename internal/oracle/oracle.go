// Package oracle implements the test oracle of Figure 3's "output
// checker". The way a test program was derived fixes the expected
// compiler behaviour, so no differential testing is needed (Section 3):
// programs from the generator and from the type erasure mutation are
// well-typed and must compile; programs from the type overwriting
// mutation are ill-typed and must be rejected; a crash is always a bug.
package oracle

import (
	"fmt"

	"repro/internal/compilers"
)

// InputKind records how a test program was derived.
type InputKind int

const (
	// Generated: produced by the program generator (well-typed).
	Generated InputKind = iota
	// TEMMutant: produced by the type erasure mutation (well-typed).
	TEMMutant
	// TOMMutant: produced by the type overwriting mutation (ill-typed).
	TOMMutant
	// TEMTOMMutant: TOM applied on a TEM mutant (ill-typed, with omitted
	// type information).
	TEMTOMMutant
	// Suite: a hand-written test-suite program (well-typed).
	Suite
	// REMMutant: produced by the resolution mutation (well-typed; a
	// decoy overload stresses overload resolution).
	REMMutant
	// Synthesized: built bottom-up from API signatures by the
	// api-driven synthesizer (well-typed by construction; see
	// internal/apisynth and arXiv:2311.04527).
	Synthesized

	// numInputKinds sizes the capability table below. Keep it last:
	// adding a kind without a kindSpecs entry is a compile-time error
	// (array length mismatch) rather than a silent default.
	numInputKinds
)

// kindSpec is the single authoritative record of how the rest of the
// system treats one input kind. Every behavioural special case that
// used to live inline in pipeline or difforacle ("stress units skip
// mutation", "non-stress units get conformance-checked") is a column
// here, so a new kind must answer every question exactly once.
type kindSpec struct {
	name string
	// expectCompile: the derivation fixes the oracle's expectation —
	// true for well-typed derivations, false for ill-typed ones.
	expectCompile bool
	// mutable: the Mutate stage may derive TEM/TOM/REM mutants from
	// units of this kind. Only base programs are mutated; mutants are
	// not re-mutated, and synthesized programs are a terminal mode of
	// their own (mutating them would blur the RQ3/RQ4 comparison).
	mutable bool
	// conformance: the differential oracle's translator-conformance
	// check applies — the Java/Kotlin/Groovy renderings must be
	// verdict-equivalent under the shared reference check.
	conformance bool
}

// kindSpecs is indexed by InputKind. The fixed array length makes the
// table exhaustive by construction; TestKindCapabilityTable pins each
// cell so a new kind needs an explicit, reviewed decision.
var kindSpecs = [numInputKinds]kindSpec{
	Generated:    {name: "generator", expectCompile: true, mutable: true, conformance: true},
	TEMMutant:    {name: "TEM", expectCompile: true, mutable: false, conformance: true},
	TOMMutant:    {name: "TOM", expectCompile: false, mutable: false, conformance: true},
	TEMTOMMutant: {name: "TEM&TOM", expectCompile: false, mutable: false, conformance: true},
	Suite:        {name: "suite", expectCompile: true, mutable: true, conformance: true},
	REMMutant:    {name: "REM", expectCompile: true, mutable: false, conformance: true},
	Synthesized:  {name: "synthesized", expectCompile: true, mutable: false, conformance: true},
}

// Known reports whether k is a defined input kind. Unknown values can
// reach us from a journal written by a newer build; every predicate
// below answers conservatively for them and Judge abstains from
// accept/reject verdicts rather than fabricating bugs.
func (k InputKind) Known() bool {
	return k >= 0 && k < numInputKinds
}

// Kinds returns every defined input kind in declaration order.
func Kinds() []InputKind {
	ks := make([]InputKind, numInputKinds)
	for i := range ks {
		ks[i] = InputKind(i)
	}
	return ks
}

// KindSet is a set of input kinds, one bit per kind. It holds kinds 0–63,
// which covers every defined kind and the unknown kinds a journal from a
// newer build may carry; Add ignores a kind outside that range.
type KindSet uint64

// Add inserts k into the set.
func (s *KindSet) Add(k InputKind) {
	if k >= 0 && k < 64 {
		*s |= 1 << uint(k)
	}
}

// Has reports whether k is in the set.
func (s KindSet) Has(k InputKind) bool {
	return k >= 0 && k < 64 && s&(1<<uint(k)) != 0
}

// Kinds returns the set's kinds in ascending order.
func (s KindSet) Kinds() []InputKind {
	var out []InputKind
	for k := InputKind(0); s != 0; k, s = k+1, s>>1 {
		if s&1 != 0 {
			out = append(out, k)
		}
	}
	return out
}

func (k InputKind) String() string {
	if k.Known() {
		return kindSpecs[k].name
	}
	// Never mislabel a future kind: reports, corpus keys, and the
	// event trace must surface it as unknown, not as "suite".
	return fmt.Sprintf("unknown(%d)", int(k))
}

// ExpectCompile reports the oracle's expectation for the input kind.
// The switch over kinds is exhaustive via the capability table; an
// unknown kind carries no expectation, so this reports false and Judge
// additionally abstains from URB verdicts for it (it would otherwise
// claim every compiling unknown-kind program is a bug).
func (k InputKind) ExpectCompile() bool {
	return k.Known() && kindSpecs[k].expectCompile
}

// Mutable reports whether the Mutate stage may derive mutants from
// units of this kind. False for unknown kinds: never mutate a program
// whose derivation we cannot name.
func (k InputKind) Mutable() bool {
	return k.Known() && kindSpecs[k].mutable
}

// ConformanceCheckable reports whether the differential oracle's
// translator-conformance check applies to units of this kind. False
// for unknown kinds: a conformance "finding" on an unclassifiable
// derivation is noise.
func (k InputKind) ConformanceCheckable() bool {
	return k.Known() && kindSpecs[k].conformance
}

// Verdict classifies one compilation against the oracle.
type Verdict int

const (
	// Pass: the compiler behaved as expected.
	Pass Verdict = iota
	// UnexpectedCompileTimeError: a well-formed program was rejected
	// (the UCTE symptom).
	UnexpectedCompileTimeError
	// UnexpectedAcceptance: an ill-typed program compiled; running the
	// binary would misbehave (the URB symptom).
	UnexpectedAcceptance
	// CompilerCrash: the compiler threw an internal error.
	CompilerCrash
	// CompilerHang: the compiler exceeded the harness watchdog's
	// deadline. In the paper's taxonomy a hang is a reportable
	// performance bug, distinct from a crash: the compiler neither
	// accepted, rejected, nor aborted.
	CompilerHang
	// ResourceExhausted: the deterministic resource governor halted the
	// compiler before it finished (fuel or recursion-depth budget). Like a
	// hang this is a performance finding, but unlike the wall-clock
	// watchdog it reproduces at the same step count on any machine, so
	// exhausted programs are first-class, deduplicable report entries.
	ResourceExhausted
	// Disagreement: the differential cross-compiler oracle found a
	// non-uniform verdict vector — the same IR program was accepted by at
	// least one compiler under test and rejected by another (see
	// internal/difforacle). Unlike the derivation-based verdicts above it
	// needs no ground truth: whatever the program's true typing status,
	// at least one side of the vote is wrong. Attached to the minority
	// ("suspect") side's executions when the vote is decided, and to
	// every voting execution when it ties.
	Disagreement
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case UnexpectedCompileTimeError:
		return "UCTE"
	case UnexpectedAcceptance:
		return "URB"
	case CompilerHang:
		return "hang"
	case CompilerCrash:
		return "crash"
	case ResourceExhausted:
		return "exhausted"
	case Disagreement:
		return "disagreement"
	default:
		// Never mislabel a future verdict: surface it as unknown rather
		// than silently folding it into "crash" counts.
		return fmt.Sprintf("unknown(%d)", int(v))
	}
}

// Judge compares a compilation result against the oracle for the input
// kind. A crash or hang is a bug whatever the derivation. For an
// unknown kind the derivation-based half of the oracle abstains: with
// no ground truth about the program's typing status, neither an accept
// nor a reject can be called a bug (crashes, hangs, and governor
// bailouts are still reported — those are bugs under any derivation).
func Judge(kind InputKind, res *compilers.Result) Verdict {
	if res.Status == compilers.Crashed {
		return CompilerCrash
	}
	if res.Status == compilers.TimedOut {
		return CompilerHang
	}
	if res.Status == compilers.ResourceExhausted {
		return ResourceExhausted
	}
	if !kind.Known() {
		return Pass
	}
	if kind.ExpectCompile() {
		if res.Status == compilers.Rejected {
			return UnexpectedCompileTimeError
		}
		return Pass
	}
	if res.Status == compilers.OK {
		return UnexpectedAcceptance
	}
	return Pass
}
