// Package compilers implements the simulated compilers under test:
// javac, kotlinc, and groovyc stand-ins. Each wraps the reference type
// checker (internal/checker) — its "compiler codebase", instrumented with
// coverage probes — and overlays a seeded bug catalog (internal/bugs).
//
// Compilation has two halves. Check runs the reference checker to obtain
// the ground-truth verdict and computes the program's trigger evidence;
// it depends on no compiler. Overlay then applies one compiler's first
// firing bugs: a crash bug aborts compilation with an internal error, a
// UCTE bug makes the compiler reject a well-typed program, and a URB bug
// makes it accept an ill-typed one. The Result records the triggered bugs
// so campaign accounting has ground truth, exactly like a real campaign's
// issue tracker does after developers triage. A context carrying
// WithSharedCheck lets every compiler of one input overlay a single check.
package compilers

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/coverage"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/types"
)

// Status is a compilation outcome.
type Status int

const (
	// OK: the program compiled.
	OK Status = iota
	// Rejected: the compiler reported type errors.
	Rejected
	// Crashed: the compiler threw an internal error.
	Crashed
	// TimedOut: the compiler hung past the harness watchdog's deadline.
	// Synthesized by internal/harness, never by the simulated compilers
	// themselves; a hang is a reportable bug distinct from a crash.
	TimedOut
	// ResourceExhausted: the resource governor's deterministic fuel or
	// recursion-depth budget ran out mid-check. Unlike TimedOut, this is a
	// pure function of the program and the configured budget — the same
	// program exhausts at the same step on every machine — so it can be
	// journaled, deduplicated, and replayed byte-identically.
	ResourceExhausted
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Rejected:
		return "rejected"
	case Crashed:
		return "crashed"
	case TimedOut:
		return "timed out"
	case ResourceExhausted:
		return "resource exhausted"
	default:
		return fmt.Sprintf("unknown(%d)", int(s))
	}
}

// Result is the outcome of compiling one program.
type Result struct {
	Status      Status
	Diagnostics []string
	// Triggered lists the seeded bugs this compilation hit (ground truth
	// for campaign accounting; a real campaign learns this only after
	// reporting and triage).
	Triggered []*bugs.Bug
	// ReferenceOK is the reference checker's verdict: what a correct
	// compiler would have said.
	ReferenceOK bool
}

// Triggers reports whether the compilation hit the seeded bug id.
func (r *Result) Triggers(id string) bool {
	for _, b := range r.Triggered {
		if b.ID == id {
			return true
		}
	}
	return false
}

// Compiler simulates one JVM compiler.
type Compiler struct {
	name     string
	language string
	catalog  []*bugs.Bug
	versions []string
	// packages maps the neutral checker probe regions onto this
	// compiler's package naming, for the Figure 9 breakdown.
	packages map[string]string
}

// Name returns the compiler's name ("javac", "kotlinc", "groovyc").
func (c *Compiler) Name() string { return c.name }

// Language returns the translator language the compiler consumes.
func (c *Compiler) Language() string { return c.language }

// Catalog exposes the seeded bug catalog (ground truth). It is shared by
// every Compiler of the same name and must not be modified.
func (c *Compiler) Catalog() []*bugs.Bug { return c.catalog }

// Versions lists the stable versions; the development master is the
// implicit index len(Versions()).
func (c *Compiler) Versions() []string { return c.versions }

// MasterVersion returns the index denoting the development master.
func (c *Compiler) MasterVersion() int { return len(c.versions) }

// PackageFor maps a neutral probe region ("resolve", "types", ...) to the
// compiler's package name ("resolve.calls.inference", "stc", ...).
func (c *Compiler) PackageFor(region string) string {
	if p, ok := c.packages[region]; ok {
		return p
	}
	return region
}

// The bug catalogs and the builtin type universe are read-only, so every
// Compiler shares one per-process copy of each instead of rebuilding it
// per campaign.
var (
	builtins       = sync.OnceValue(types.NewBuiltins)
	javacCatalog   = sync.OnceValue(func() []*bugs.Bug { return bugs.Build(bugs.JavacSpec()) })
	kotlincCatalog = sync.OnceValue(func() []*bugs.Bug { return bugs.Build(bugs.KotlincSpec()) })
	groovycCatalog = sync.OnceValue(func() []*bugs.Bug { return bugs.Build(bugs.GroovycSpec()) })
)

// Javac returns the simulated OpenJDK Java compiler.
func Javac() *Compiler {
	spec := bugs.JavacSpec()
	return &Compiler{
		name:     "javac",
		language: "java",
		catalog:  javacCatalog(),
		versions: versionsN("jdk-", 8, spec.StableVersions),
		packages: map[string]string{
			"resolve": "comp.Resolve",
			"infer":   "comp.Infer",
			"types":   "code.Types",
			"stc":     "comp.Attr",
			"code":    "code.*",
		},
	}
}

// Kotlinc returns the simulated Kotlin compiler.
func Kotlinc() *Compiler {
	spec := bugs.KotlincSpec()
	return &Compiler{
		name:     "kotlinc",
		language: "kotlin",
		catalog:  kotlincCatalog(),
		versions: kotlinVersions(spec.StableVersions),
		packages: map[string]string{
			"resolve": "resolve.calls",
			"infer":   "resolve.calls.inference",
			"types":   "types",
			"stc":     "resolve",
			"code":    "backend",
		},
	}
}

// Groovyc returns the simulated Groovy compiler.
func Groovyc() *Compiler {
	spec := bugs.GroovycSpec()
	return &Compiler{
		name:     "groovyc",
		language: "groovy",
		catalog:  groovycCatalog(),
		versions: versionsN("groovy-2.", 0, spec.StableVersions),
		packages: map[string]string{
			"resolve": "stc.StaticTypeCheckingSupport",
			"infer":   "stc.StaticTypeCheckingVisitor",
			"types":   "stc",
			"stc":     "stc",
			"code":    "classgen",
		},
	}
}

// All returns the three simulated compilers in the paper's order.
func All() []*Compiler {
	return []*Compiler{Groovyc(), Kotlinc(), Javac()}
}

func versionsN(prefix string, start, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, start+i)
	}
	return out
}

func kotlinVersions(n int) []string {
	out := make([]string, n)
	majors := []string{"1.0", "1.1", "1.2", "1.3", "1.4", "1.5", "1.6"}
	for i := range out {
		out[i] = majors[i%len(majors)] + fmt.Sprintf(".%d", i/len(majors))
	}
	return out
}

// Compile compiles the program at the development master, unmetered.
// Coverage probes (may be nil) observe the underlying checker — the
// simulated compiler's codebase.
func (c *Compiler) Compile(p *ir.Program, cov coverage.Recorder) *Result {
	res, err := c.CompileContext(context.Background(), p, cov)
	if err != nil {
		// Only a bound, cancelled context produces an error; a background
		// context never cancels.
		panic(err)
	}
	return res
}

// CompileContext compiles the program at the development master under the
// resource budget carried by ctx (see internal/governor; a nil/absent
// budget is unmetered): it overlays the compiler's catalog on Check's
// verdict. When ctx carries a shared check (WithSharedCheck) that already
// holds this program's check, the check is read from it instead of run
// again. When the governor halts the check:
//
//   - a cancelled context surfaces as (nil, ctx.Err()) so the harness
//     classifies it like any other abandoned invocation (timeout/abort);
//   - fuel or depth exhaustion yields a deterministic ResourceExhausted
//     Result (see Overlay).
func (c *Compiler) CompileContext(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*Result, error) {
	shared, _ := ctx.Value(sharedCheckKey{}).(*sharedCheck)
	checked := shared.load(p)
	if checked == nil {
		var err error
		if checked, err = Check(ctx, p, cov); err != nil {
			return nil, err
		}
		shared.store(checked)
	}
	return c.Overlay(checked), nil
}

// Checked is the compiler-independent half of a compile: the reference
// checker's verdict on one program and the program's trigger evidence.
// It is immutable once Check returns, so any number of compilers may
// overlay their catalogs on one Checked concurrently.
type Checked struct {
	prog *ir.Program
	// exhausted is the governor's fuel or depth bailout message; empty
	// when the check finished.
	exhausted string
	evidence  bugs.Evidence
	// diags are the reference checker's rendered diagnostics.
	diags []string
}

// Check runs the reference checker on p under the resource budget carried
// by ctx (see internal/governor; a nil/absent budget is unmetered) and
// computes the trigger evidence every catalog is judged against. Coverage
// probes (may be nil) observe the checker. A cancelled check returns
// (nil, err); fuel or depth exhaustion is a finished check, because it is
// a pure function of the program and the budget.
func Check(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*Checked, error) {
	if cov == nil {
		cov = coverage.Nop{}
	}
	res := checker.Check(p, builtins(), checker.Options{Probes: cov, Budget: governor.FromContext(ctx)})
	if bail := res.Bailout; bail != nil {
		if bail.Reason == governor.Cancelled {
			err := bail.Err
			if err == nil {
				err = ctx.Err()
			}
			if err == nil {
				err = context.Canceled
			}
			return nil, err
		}
		return &Checked{prog: p, exhausted: fmt.Sprintf("resource governor: %s", bail)}, nil
	}
	out := &Checked{
		prog: p,
		evidence: bugs.Evidence{
			WellTyped:    res.OK(),
			OmittedTypes: bugs.OmitsTypes(p),
			Signature:    bugs.Signature(p),
		},
	}
	for _, d := range res.Diags {
		out.diags = append(out.diags, d.String())
	}
	return out, nil
}

// Overlay applies the compiler's bug catalog, as of the development
// master, to a finished check. An exhausted check skips the catalog: the
// reference verdict is unknown, so no accept/reject-flipping bug can
// meaningfully fire.
func (c *Compiler) Overlay(checked *Checked) *Result {
	if checked.exhausted != "" {
		return &Result{Status: ResourceExhausted, Diagnostics: []string{checked.exhausted}}
	}
	wellTyped := checked.evidence.WellTyped
	out := &Result{ReferenceOK: wellTyped}
	for _, b := range c.catalog {
		if !b.AffectsVersion(c.MasterVersion()) || !b.Fires(checked.evidence) {
			continue
		}
		out.Triggered = append(out.Triggered, b)
	}
	// A crash dominates every other outcome.
	for _, b := range out.Triggered {
		if b.Symptom == bugs.Crash {
			out.Status = Crashed
			out.Diagnostics = append(out.Diagnostics, b.Diagnostic())
			return out
		}
	}
	if wellTyped {
		// Correct outcome is acceptance; a UCTE bug flips it.
		for _, b := range out.Triggered {
			if b.Symptom == bugs.UCTE {
				out.Status = Rejected
				out.Diagnostics = append(out.Diagnostics, b.Diagnostic())
				return out
			}
		}
		out.Status = OK
		return out
	}
	// Correct outcome is rejection; a URB bug silently accepts.
	for _, b := range out.Triggered {
		if b.Symptom == bugs.URB {
			out.Status = OK
			out.Diagnostics = append(out.Diagnostics, b.Diagnostic())
			return out
		}
	}
	out.Status = Rejected
	out.Diagnostics = append(out.Diagnostics, checked.diags...)
	return out
}

// sharedCheck holds one input's finished check for every compiler that
// compiles it. Only a finished check is stored: a cancelled check or a
// panic stores nothing, so the next compiler checks again. The first
// check to finish wins the compare-and-swap, which keeps a compile the
// harness watchdog abandoned, finishing late on its own goroutine, from
// racing the compiles after it.
type sharedCheck struct{ checked atomic.Pointer[Checked] }

type sharedCheckKey struct{}

// WithSharedCheck returns a context under which compiles of one program
// share a single reference check: the first compile to finish its check
// stores it, and every later compile overlays its own catalog on the
// stored check. Attach one per input. A compile that reads the shared
// check runs no checker, so it charges no fuel and fires no coverage
// probes.
func WithSharedCheck(ctx context.Context) context.Context {
	return context.WithValue(ctx, sharedCheckKey{}, &sharedCheck{})
}

// WithoutSharedCheck returns ctx with any shared check detached, so the
// next compile runs the checker itself (the harness's double-compile
// probe needs this to observe a nondeterministic checker).
func WithoutSharedCheck(ctx context.Context) context.Context {
	return context.WithValue(ctx, sharedCheckKey{}, (*sharedCheck)(nil))
}

// load returns the stored check if it is p's, else nil.
func (s *sharedCheck) load(p *ir.Program) *Checked {
	if s == nil {
		return nil
	}
	if checked := s.checked.Load(); checked != nil && checked.prog == p {
		return checked
	}
	return nil
}

// store publishes a finished check unless one is already stored.
func (s *sharedCheck) store(checked *Checked) {
	if s != nil {
		s.checked.CompareAndSwap(nil, checked)
	}
}

// Crash detection mirrors the paper's per-language detectors: "a
// regular expression that distinguishes compiler crashes from compiler
// diagnostic messages" (Section 3.6). The patterns are anchored to the
// two shapes a crash actually takes here — a sandbox-captured panic and
// a catalog crash banner — so an ordinary rejection diagnostic that
// merely quotes the words "internal error" is never misclassified.
var (
	// sandboxCrashPattern matches the diagnostic the harness sandbox
	// synthesizes when a compiler panics; language-neutral because the
	// sandbox sits above every compiler.
	sandboxCrashPattern = regexp.MustCompile(`^internal error: panic: `)
	// crashPatterns holds each compiler's anchored crash-banner detector.
	crashPatterns = map[string]*regexp.Regexp{}
)

func init() {
	for _, name := range []string{"javac", "kotlinc", "groovyc"} {
		crashPatterns[name] = regexp.MustCompile(`^` + name + `: internal error: exception in \S+ phase \[`)
	}
}

// IsCrashOutputFor reports whether diag is a crash banner of the named
// compiler (or a sandbox-captured panic, which any compiler can emit).
func IsCrashOutputFor(compiler, diag string) bool {
	if sandboxCrashPattern.MatchString(diag) {
		return true
	}
	re := crashPatterns[compiler]
	return re != nil && re.MatchString(diag)
}

// IsCrashOutput reports whether diag is a crash banner of any compiler
// under test.
func IsCrashOutput(diag string) bool {
	if sandboxCrashPattern.MatchString(diag) {
		return true
	}
	for _, re := range crashPatterns {
		if re.MatchString(diag) {
			return true
		}
	}
	return false
}
