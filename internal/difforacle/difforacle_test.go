package difforacle

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/compilers"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/translate"
)

func TestNormalizeStatusMapping(t *testing.T) {
	cases := []struct {
		res  *compilers.Result
		want Lane
	}{
		{nil, Unknown},
		{&compilers.Result{Status: compilers.OK}, Accept},
		{&compilers.Result{Status: compilers.Rejected, Diagnostics: []string{"type mismatch: inferred type is Int"}}, Reject},
		{&compilers.Result{Status: compilers.Crashed}, Crash},
		{&compilers.Result{Status: compilers.TimedOut}, Hang},
		{&compilers.Result{Status: compilers.ResourceExhausted}, Exhausted},
		{&compilers.Result{Status: compilers.Status(99)}, Unknown},
		// A rejection whose diagnostic is a crash banner is a crash that
		// surfaced through the diagnostic stream (Section 3.6).
		{&compilers.Result{
			Status:      compilers.Rejected,
			Diagnostics: []string{"kotlinc: internal error: exception in types phase [KT-1]"},
		}, Crash},
		// ... but a rejection merely quoting "internal error" is not.
		{&compilers.Result{
			Status:      compilers.Rejected,
			Diagnostics: []string{"report an internal error if this persists"},
		}, Reject},
	}
	for i, c := range cases {
		if got := Normalize(c.res); got != c.want {
			t.Errorf("case %d: Normalize = %v, want %v", i, got, c.want)
		}
	}
}

func TestLaneVoting(t *testing.T) {
	votes := map[Lane]bool{
		Accept: true, Reject: true,
		Crash: false, Hang: false, Exhausted: false, Unknown: false,
	}
	for lane, want := range votes {
		if lane.Votes() != want {
			t.Errorf("%v.Votes() = %v, want %v", lane, lane.Votes(), want)
		}
	}
}

// TestExhaustedAndHangLanesAbstain pins that a per-compiler
// ResourceExhausted result skips that compiler's catalog entirely
// (Overlay returns before it), so exhausted — and hang, and crash —
// lanes must read as abstentions, never as a reject vote. A tight -fuel budget must not
// synthesize disagreements out of compilers that simply ran out.
func TestExhaustedAndHangLanesAbstain(t *testing.T) {
	for _, nonVote := range []Lane{Exhausted, Hang, Crash, Unknown} {
		// Uniform accepts + one non-voting lane: no disagreement.
		an := Analyze([]Sample{
			{Compiler: "groovyc", Lane: Accept},
			{Compiler: "kotlinc", Lane: Accept},
			{Compiler: "javac", Lane: nonVote},
		})
		if an.Disagree {
			t.Errorf("%v lane voted reject against two accepts", nonVote)
		}
		// Uniform rejects + one non-voting lane: still no disagreement.
		an = Analyze([]Sample{
			{Compiler: "groovyc", Lane: Reject},
			{Compiler: "kotlinc", Lane: Reject},
			{Compiler: "javac", Lane: nonVote},
		})
		if an.Disagree {
			t.Errorf("%v lane voted against two rejects", nonVote)
		}
		// A real split with one abstention: disagreement, but a 1–1 tie —
		// the abstaining lane must not break it.
		an = Analyze([]Sample{
			{Compiler: "groovyc", Lane: Accept},
			{Compiler: "kotlinc", Lane: Reject},
			{Compiler: "javac", Lane: nonVote},
		})
		if !an.Disagree {
			t.Errorf("accept/reject split with %v lane must disagree", nonVote)
		}
		if len(an.Suspects) != 0 {
			t.Errorf("tie with %v abstaining attributed suspects %v", nonVote, an.Suspects)
		}
	}
	// All lanes abstaining is no disagreement at all.
	if an := Analyze([]Sample{
		{Compiler: "groovyc", Lane: Exhausted},
		{Compiler: "kotlinc", Lane: Hang},
		{Compiler: "javac", Lane: Crash},
	}); an.Disagree {
		t.Error("vector with no voting lanes cannot disagree")
	}
}

func TestAnalyzeMajorityAttribution(t *testing.T) {
	an := Analyze([]Sample{
		{Compiler: "groovyc", Lane: Reject},
		{Compiler: "kotlinc", Lane: Reject},
		{Compiler: "javac", Lane: Accept},
	})
	if !an.Disagree {
		t.Fatal("2-1 split must disagree")
	}
	if !reflect.DeepEqual(an.Suspects, []string{"javac"}) {
		t.Errorf("suspects = %v, want the minority [javac]", an.Suspects)
	}
	wantPairs := [][2]string{{"groovyc", "javac"}, {"javac", "kotlinc"}}
	if !reflect.DeepEqual(an.Pairs, wantPairs) {
		t.Errorf("pairs = %v, want %v", an.Pairs, wantPairs)
	}
	// Uniform vectors never disagree.
	if an := Analyze([]Sample{
		{Compiler: "groovyc", Lane: Accept},
		{Compiler: "kotlinc", Lane: Accept},
	}); an.Disagree {
		t.Error("uniform accepts disagreed")
	}
	// Single-compiler vectors never disagree.
	if an := Analyze([]Sample{{Compiler: "groovyc", Lane: Reject}}); an.Disagree {
		t.Error("single-lane vector disagreed")
	}
}

func TestVectorStringCanonical(t *testing.T) {
	a := VectorString([]Sample{
		{Compiler: "kotlinc", Lane: Reject},
		{Compiler: "groovyc", Lane: Accept},
		{Compiler: "javac", Lane: Exhausted},
	})
	b := VectorString([]Sample{
		{Compiler: "javac", Lane: Exhausted},
		{Compiler: "kotlinc", Lane: Reject},
		{Compiler: "groovyc", Lane: Accept},
	})
	want := "groovyc=accept,javac=exhausted,kotlinc=reject"
	if a != want || b != want {
		t.Errorf("VectorString not canonical: %q / %q, want %q", a, b, want)
	}
}

// TestAnalyzeConformanceEveryLaneVotes: for translator conformance a
// crash or malformed rendering is a failed check, not an abstention —
// there is no other oracle channel for translator failures.
func TestAnalyzeConformanceEveryLaneVotes(t *testing.T) {
	an := AnalyzeConformance([]Sample{
		{Compiler: "kotlin", Lane: Accept},
		{Compiler: "java", Lane: Accept},
		{Compiler: "groovy", Lane: Crash},
	})
	if !an.Disagree {
		t.Fatal("translator crash against two conforming renderings must disagree")
	}
	if !reflect.DeepEqual(an.Suspects, []string{"groovy"}) {
		t.Errorf("suspects = %v, want [groovy]", an.Suspects)
	}
	// All failing the same way is uniform: the reference check itself
	// cannot tell who is right, only who differs.
	if an := AnalyzeConformance([]Sample{
		{Compiler: "kotlin", Lane: Reject},
		{Compiler: "java", Lane: Crash},
	}); an.Disagree {
		t.Error("uniformly non-conforming vector disagreed")
	}
}

// TestTranslatorsConformOnGeneratedPrograms: the three real backends
// pass the shared reference check on generator output, so translator
// conformance adds no false disagreements to a differential campaign.
func TestTranslatorsConformOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		p := g.Generate()
		samples := CheckTranslators(p)
		if len(samples) != len(translate.All()) {
			t.Fatalf("seed %d: %d samples, want one per backend", seed, len(samples))
		}
		for _, s := range samples {
			if s.Lane != Accept {
				t.Errorf("seed %d: %s rendering graded %v", seed, s.Compiler, s.Lane)
			}
		}
		if an := AnalyzeConformance(samples); an.Disagree {
			t.Errorf("seed %d: conforming renderings disagreed", seed)
		}
	}
}

func TestConformsReferenceCheck(t *testing.T) {
	p := &ir.Program{Decls: []ir.Decl{
		&ir.ClassDecl{Name: "Widget"},
		&ir.FuncDecl{Name: "frobnicate"},
	}}
	if Conforms(p, "") {
		t.Error("empty rendering conformed")
	}
	if Conforms(p, "class Widget {}") {
		t.Error("rendering missing a declared function conformed")
	}
	if Conforms(p, "class Widget { def frobnicate() {} ") {
		t.Error("unbalanced braces conformed")
	}
	if !Conforms(p, "class Widget {}\ndef frobnicate() { f(\"}\") }") {
		t.Error("balanced rendering with a brace inside a string literal rejected")
	}
}

// balancedRunes is balanced as it was first written, decoding runes; the
// byte scan must agree with it on every input.
func balancedRunes(src string) bool {
	braces, parens := 0, 0
	inString, escaped := false, false
	for _, r := range src {
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

func TestBalancedByteScanMatchesRuneScan(t *testing.T) {
	cases := []string{
		"",
		"fun f() { println(\"héllo → wörld\") }",
		"val s = \"日本語 { ( \"; f(s)",
		"val s = \"\\\"}\\\"\" + \"é\\é\"", // escaped quotes and an escaped multibyte rune
		"val s = \"\\日\" }",                // unbalanced after an escaped multibyte rune
		"class 🚀 { fun f() = (1 }",         // unbalanced parens around an emoji
		"g(\"unterminated ✓",               // unterminated literal
		"\xff\xfe{ \"\xc3\" }",             // invalid UTF-8 bytes
		"\"\\\xe6\x97\xa5\" ()",            // escape before a multibyte sequence
		")(",
	}
	for _, src := range cases {
		if got, want := balanced(src), balancedRunes(src); got != want {
			t.Errorf("balanced(%q) = %v, rune scan %v", src, got, want)
		}
	}
	alphabet := []string{"{", "}", "(", ")", "\"", "\\", "a", " ", "é", "日", "🚀", "\xff", "\xc3"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var src string
		for n := rng.Intn(24); n > 0; n-- {
			src += alphabet[rng.Intn(len(alphabet))]
		}
		if got, want := balanced(src), balancedRunes(src); got != want {
			t.Fatalf("balanced(%q) = %v, rune scan %v", src, got, want)
		}
	}
}
