// Package difforacle implements the differential cross-compiler oracle:
// a second, ground-truth-free oracle mode in the spirit of
// cross-language differential compiler testing (arXiv:2507.06584,
// CrossLangFuzzer). The derivation-based oracle of
// internal/oracle fixes the expected verdict from how a program was
// built; the differential oracle instead compiles the same IR program
// with every compiler under test, normalizes each result into a lane of
// an accept/reject/crash/hang/exhausted verdict vector, and flags any
// non-uniform vector — whatever the program's true typing status, a
// split vote means at least one compiler is wrong.
//
// Voting semantics are deliberately conservative:
//
//   - only Accept and Reject lanes vote: they are the only outcomes
//     that assert a typing judgement;
//   - Crash lanes abstain — a crash is already a first-class bug
//     (oracle.CompilerCrash) and tells us nothing about which verdict
//     the compiler would have reached;
//   - Hang, Exhausted, and Unknown lanes abstain: the compiler never
//     finished, so treating them as a reject vote would let a tight
//     fuel budget (or a slow machine) synthesize disagreements out of
//     thin air. In particular a per-compiler ResourceExhausted result
//     skips that compiler's bug-catalog overlay entirely
//     (compilers.(*Compiler).Overlay returns before the catalog),
//     so an exhausted lane carries no catalog signal at all.
//
// When the vote splits, the minority side is the suspect (majority-vote
// attribution); a tie is a real disagreement but names no suspect. The
// package also generalizes the oracle to translator conformance: the
// three internal/translate backends render the same IR program, and a
// shared, language-neutral reference check asserts the renderings are
// verdict-equivalent — making translator bugs a first-class bug class.
package difforacle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compilers"
	"repro/internal/ir"
	"repro/internal/translate"
)

// Lane is one compiler's normalized position in a verdict vector.
type Lane int

const (
	// Unknown: no judgeable result (a harness gap, a nil result). Never
	// votes.
	Unknown Lane = iota
	// Accept: the compiler accepted the program.
	Accept
	// Reject: the compiler reported ordinary diagnostics.
	Reject
	// Crash: the compiler aborted with an internal error (or its
	// rejection output matches the per-language crash detector).
	Crash
	// Hang: the harness watchdog killed the compile.
	Hang
	// Exhausted: the deterministic resource governor halted the compile.
	Exhausted
)

func (l Lane) String() string {
	switch l {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Exhausted:
		return "exhausted"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("unknown(%d)", int(l))
	}
}

// Votes reports whether the lane casts an accept/reject vote. Crash,
// hang, exhausted, and unknown lanes abstain: the compiler never
// asserted a typing judgement to compare.
func (l Lane) Votes() bool { return l == Accept || l == Reject }

// Normalize maps a compilation result onto its verdict-vector lane. A
// Rejected result whose diagnostics match the per-language crash
// detector (compilers.IsCrashOutput) is a crash that surfaced through
// the diagnostic stream, the paper's Section 3.6 normalization.
func Normalize(res *compilers.Result) Lane {
	if res == nil {
		return Unknown
	}
	switch res.Status {
	case compilers.OK:
		return Accept
	case compilers.Rejected:
		for _, d := range res.Diagnostics {
			if compilers.IsCrashOutput(d) {
				return Crash
			}
		}
		return Reject
	case compilers.Crashed:
		return Crash
	case compilers.TimedOut:
		return Hang
	case compilers.ResourceExhausted:
		return Exhausted
	default:
		return Unknown
	}
}

// Sample is one lane of a verdict vector: a compiler (or translator
// backend) and its normalized verdict.
type Sample struct {
	Compiler string
	Lane     Lane
}

// Analysis is the oracle's reading of one verdict vector.
type Analysis struct {
	// Samples is the vector as analyzed, in the caller's order.
	Samples []Sample
	// Disagree reports a non-uniform vote: at least one accept and one
	// reject among the voting lanes.
	Disagree bool
	// Suspects lists the minority side of the vote, sorted by name;
	// empty when the vote ties (a real disagreement, but unattributed).
	Suspects []string
	// Pairs lists every disagreeing voting pair with each pair's names
	// sorted and the pairs themselves sorted — the report's
	// compiler×compiler disagreement matrix entries.
	Pairs [][2]string
}

// Analyze applies the differential oracle to one compiler verdict
// vector. Only Accept and Reject lanes vote; every other lane abstains
// (see the package comment for why).
func Analyze(samples []Sample) Analysis {
	return analyze(samples, func(l Lane) (ok, votes bool) {
		switch l {
		case Accept:
			return true, true
		case Reject:
			return false, true
		default:
			return false, false
		}
	})
}

// AnalyzeConformance applies the oracle to a translator-conformance
// vector. Unlike compiler lanes, every lane votes — conforming (Accept)
// against everything else — because a translator that panics or emits a
// malformed rendering has no other oracle channel to surface through.
func AnalyzeConformance(samples []Sample) Analysis {
	return analyze(samples, func(l Lane) (ok, votes bool) {
		return l == Accept, true
	})
}

func analyze(samples []Sample, vote func(Lane) (ok, votes bool)) Analysis {
	a := Analysis{Samples: samples}
	var yes, no []string
	for _, s := range samples {
		ok, votes := vote(s.Lane)
		switch {
		case !votes:
		case ok:
			yes = append(yes, s.Compiler)
		default:
			no = append(no, s.Compiler)
		}
	}
	if len(yes) == 0 || len(no) == 0 {
		return a
	}
	a.Disagree = true
	switch {
	case len(yes) < len(no):
		a.Suspects = append([]string(nil), yes...)
	case len(no) < len(yes):
		a.Suspects = append([]string(nil), no...)
	}
	sort.Strings(a.Suspects)
	for _, x := range yes {
		for _, y := range no {
			p := [2]string{x, y}
			if p[0] > p[1] {
				p[0], p[1] = p[1], p[0]
			}
			a.Pairs = append(a.Pairs, p)
		}
	}
	sort.Slice(a.Pairs, func(i, j int) bool {
		if a.Pairs[i][0] != a.Pairs[j][0] {
			return a.Pairs[i][0] < a.Pairs[j][0]
		}
		return a.Pairs[i][1] < a.Pairs[j][1]
	})
	return a
}

// VectorString renders the canonical form of a verdict vector: lanes
// sorted by name, e.g. "groovyc=accept,javac=reject,kotlinc=reject".
// The canonical form is the report's deduplication key, so it must not
// depend on execution order.
func VectorString(samples []Sample) string {
	sorted := append([]Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compiler < sorted[j].Compiler })
	parts := make([]string, len(sorted))
	for i, s := range sorted {
		parts[i] = s.Compiler + "=" + s.Lane.String()
	}
	return strings.Join(parts, ",")
}

// CheckTranslators renders p through every translate backend and grades
// each rendering with the shared reference check: one conformance
// sample per backend, in translate.All order. A panicking backend
// yields a Crash lane; a rendering that fails the check yields Reject.
func CheckTranslators(p *ir.Program) []Sample {
	var out []Sample
	for _, tr := range translate.All() {
		out = append(out, Sample{Compiler: tr.Name(), Lane: renderLane(tr, p)})
	}
	return out
}

// renderLane sandboxes one backend the way the harness sandboxes a
// compile: a panic is a Crash lane, not a campaign abort.
func renderLane(tr translate.Translator, p *ir.Program) (lane Lane) {
	defer func() {
		if r := recover(); r != nil {
			lane = Crash
		}
	}()
	if Conforms(p, tr.Translate(p)) {
		return Accept
	}
	return Reject
}

// Conforms is the language-neutral reference check every backend's
// rendering is held to: the rendering is non-empty, spells the name of
// every top-level class and function the IR program declares, and
// balances braces and parentheses outside string literals. It encodes
// only what a faithful rendering of the IR must satisfy in all three
// target languages, so a backend that fails it is wrong regardless of
// language idiom.
func Conforms(p *ir.Program, src string) bool {
	if strings.TrimSpace(src) == "" {
		return false
	}
	for _, c := range p.Classes() {
		if !strings.Contains(src, c.Name) {
			return false
		}
	}
	for _, f := range p.Functions() {
		if !strings.Contains(src, f.Name) {
			return false
		}
	}
	return balanced(src)
}

// balanced checks brace/paren balance outside double-quoted literals.
// Every delimiter it counts is ASCII, and no byte of a multibyte UTF-8
// sequence is below 0x80, so it scans bytes without decoding runes.
func balanced(src string) bool {
	braces, parens := 0, 0
	inString, escaped := false, false
	for i := 0; i < len(src); i++ {
		r := src[i]
		if inString {
			switch {
			case escaped:
				escaped = false
			case r == '\\':
				escaped = true
			case r == '"':
				inString = false
			}
			continue
		}
		switch r {
		case '"':
			inString = true
		case '{':
			braces++
		case '}':
			braces--
		case '(':
			parens++
		case ')':
			parens--
		}
		if braces < 0 || parens < 0 {
			return false
		}
	}
	return braces == 0 && parens == 0 && !inString
}
