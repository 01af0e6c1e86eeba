// Command hephaestus is the CLI front end of the Hephaestus reproduction:
// generate random well-typed programs, apply the type erasure and type
// overwriting mutations, translate programs to Java/Kotlin/Groovy, fuzz
// the simulated compilers, and reduce bug-triggering test cases.
//
// Usage:
//
//	hephaestus generate  [-seed N] [-lang ir|java|kotlin|groovy]
//	hephaestus mutate    [-seed N] [-lang ...]     show the unit's mutants
//	hephaestus translate [-seed N] -lang kotlin    translate to a language
//	hephaestus fuzz      [-seed N] [-n programs] [-workers W] [-stats]
//	                     [-compile-timeout D] [-retries R] [-chaos RATE]
//	                     [-state DIR] [-resume]
//	                     [-debug-addr ADDR] [-heartbeat DUR]
//	                                               run a campaign
//	hephaestus reduce    [-seed N]                 reduce a bug trigger
//	hephaestus typegraph [-seed N]                 dump type graphs (DOT)
//
// Every subcommand derives the seed's unit exactly as a campaign with
// the same flags would: -synth, -synth-every and -stress-every pick the
// producer, and the mutants are the ones the campaign compiles. A flag
// the subcommand does not read (say -n on generate) is an error, not
// silently ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/reduce"
	"repro/internal/translate"
	"repro/internal/typegraph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	cfg := cli.NewConfig()
	cfg.Programs = 100
	lang := fs.String("lang", "ir", "output language: ir, java, kotlin, groovy")
	cfg.RegisterCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	switch cmd {
	case "generate", "mutate", "reduce", "typegraph", "fuzz":
	case "translate":
		if *lang == "ir" {
			fmt.Fprintln(os.Stderr, "translate needs -lang java|kotlin|groovy")
			os.Exit(2)
		}
	default:
		usage()
		os.Exit(2)
	}
	if unread := cli.UnreadFlags(fs, func(name string) bool { return readsFlag(cmd, name) }); len(unread) > 0 {
		fmt.Fprintf(os.Stderr, "hephaestus %s does not read %s\n", cmd, strings.Join(unread, " "))
		os.Exit(2)
	}

	opts, err := cfg.CampaignOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cmd == "fuzz" {
		fuzz(cfg, opts)
		return
	}
	derive, err := campaign.NewDerivation(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	u := derive.Derive(cfg.Seed)
	switch cmd {
	case "generate", "translate":
		emit(u.Program, *lang)
	case "mutate":
		printMutants(u, *lang)
	case "reduce":
		reduceUnit(u, opts, *lang)
	case "typegraph":
		a := typegraph.Analyze(u.Program, u.Builtins)
		for i, g := range a.BuildAll() {
			fmt.Printf("// method %s (%d nodes, %d edges, %d candidates)\n",
				a.Methods[i].Name, g.NumNodes(), g.NumEdges(), len(g.Candidates))
			fmt.Println(g.Dot())
		}
	}
}

// readsFlag reports whether subcommand cmd reads the named flag. fuzz
// runs a campaign and reads every campaign flag. The single-unit
// subcommands read the seed and the producer flags that derive the unit,
// -lang when they print a program, and reduce also the harness flags its
// compiles run under.
func readsFlag(cmd, name string) bool {
	switch name {
	case "lang":
		return cmd != "fuzz" && cmd != "typegraph"
	case "seed", "stress-every", "synth", "synth-every", "synth-corpus":
		return true
	case "compile-timeout", "retries", "fuel", "max-depth":
		return cmd == "fuzz" || cmd == "reduce"
	}
	return cmd == "fuzz"
}

// printMutants prints the unit's base program and every mutant the
// campaign derives from it, with each mutation's report.
func printMutants(u *pipeline.Unit, lang string) {
	fmt.Println("== original ==")
	emit(u.Program, lang)
	if !u.Mutable() {
		what := u.Kind.String()
		if u.Stress {
			what = "stress"
		}
		fmt.Printf("\n== %s unit: not mutated ==\n", what)
		return
	}
	byKind := map[oracle.InputKind]pipeline.Input{}
	for _, in := range u.Inputs {
		byKind[in.Kind] = in
	}
	if tem, ok := byKind[oracle.TEMMutant]; ok {
		r := tem.Report.(*mutation.TEMReport)
		fmt.Println("\n== TEM mutant (well-typed; erased points below) ==")
		for _, e := range r.Erased {
			fmt.Printf("  %s\n", e)
		}
		if r.CapHit {
			fmt.Printf("  cap hit: %d combinations tried, budget %d; later methods kept all annotations\n",
				r.CombinationsTried, mutation.MaxCombinations)
		}
		emit(tem.Prog, lang)
	} else {
		fmt.Println("\n== TEM: nothing erasable ==")
	}
	for _, m := range []struct {
		kind        oracle.InputKind
		title, none string
	}{
		{oracle.TOMMutant, "TOM mutant (ill-typed)", "TOM: no overwrite point"},
		{oracle.TEMTOMMutant, "TEM∘TOM mutant (ill-typed)", "TEM∘TOM: no overwrite point"},
		{oracle.REMMutant, "REM mutant (well-typed)", "REM: no resolution site"},
	} {
		in, ok := byKind[m.kind]
		if !ok {
			fmt.Printf("\n== %s ==\n", m.none)
			continue
		}
		fmt.Printf("\n== %s: %s ==\n", m.title, in.Report)
		emit(in.Prog, lang)
	}
}

// reduceUnit reduces the unit's first input that triggers a bug in the
// first compiler under test. Every compile runs through the harness
// under the campaign's options (watchdog, fuel budget).
func reduceUnit(u *pipeline.Unit, opts campaign.Options, lang string) {
	comp := opts.Compilers[0]
	target := harness.WrapCompiler(comp)
	sandbox := harness.New(opts.Harness)
	for i, in := range u.Inputs {
		inv := sandbox.Compile(context.Background(), target, in.Prog, nil, harness.Key{Unit: u.Seed, Input: i})
		if inv.Outcome != harness.Completed || len(inv.Result.Triggered) == 0 ||
			oracle.Judge(in.Kind, inv.Result) == oracle.Pass {
			continue
		}
		bug := inv.Result.Triggered[0]
		fmt.Printf("reducing the seed-%d %s input for %s (%d nodes)...\n", u.Seed, in.Kind, bug.ID, ir.CountNodes(in.Prog))
		reduced := reduce.ForBug(in.Prog, target, bug.ID, opts.Harness)
		fmt.Printf("reduced to %d nodes:\n\n", ir.CountNodes(reduced))
		emit(reduced, lang)
		return
	}
	fmt.Printf("seed %d triggers no %s bug; try another seed\n", u.Seed, comp.Name())
}

// fuzz runs a campaign and prints its findings and figures.
func fuzz(cfg *cli.Config, opts campaign.Options) {
	obs, err := cfg.StartObservability(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer obs.Close()
	opts.Metrics = obs.Registry
	opts.Trace = obs.Trace
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := campaign.New(opts)
	stopBeat := campaign.StartHeartbeat(os.Stderr, c.Status, cfg.Heartbeat)
	if err := c.Start(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
	report, err := c.Wait()
	stopBeat()
	cli.PrintRecovery(os.Stdout, report)
	if err != nil {
		// Flush what the truncated run still found — findings, the
		// partial figure, the fault ledger, the stage stats — then
		// signal the incomplete campaign through the exit code. A
		// durable run has also just synced its journal.
		fmt.Fprintf(os.Stderr, "campaign aborted: %v\n", err)
		if report == nil {
			os.Exit(1)
		}
		findings := report.Findings()
		fmt.Fprintf(os.Stderr, "partial report: %d distinct bugs before the abort\n", len(findings))
		printFindings(findings)
		cli.PrintDifferential(os.Stdout, report)
		fmt.Println(report.Figure7c().String())
		if report.Faults.Faults() {
			fmt.Println(report.Faults)
		}
		if cfg.Stats && report.Stats != nil {
			fmt.Println("pipeline stages:")
			fmt.Println(report.Stats)
		}
		if cfg.StateDir != "" {
			fmt.Fprintf(os.Stderr, "state saved; resume with -state %s -resume\n", cfg.StateDir)
		}
		os.Exit(1)
	}
	findings := report.Findings()
	fmt.Printf("campaign: %d programs (plus mutants), %d distinct bugs\n\n",
		cfg.Programs, len(findings))
	printFindings(findings)
	fmt.Println()
	cli.PrintDifferential(os.Stdout, report)
	fmt.Println(report.Figure7c().String())
	if report.Faults.Faults() {
		fmt.Println(report.Faults)
	}
	if report.Corpus != nil {
		fmt.Printf("bug corpus: %d distinct bugs over %d campaigns\n",
			len(report.Corpus.Bugs), report.Corpus.Campaigns)
	}
	if cfg.Stats {
		fmt.Println("pipeline stages:")
		fmt.Println(report.Stats)
	}
}

func printFindings(findings []campaign.BugDoc) {
	for _, f := range findings {
		fmt.Printf("  %-22s %-8s %-6s found by %-9s (seed %d)\n",
			f.ID, f.Compiler, f.Symptom, f.Technique, f.FirstSeed)
	}
}

func emit(p *ir.Program, lang string) {
	if lang == "ir" {
		fmt.Println(ir.Print(p))
		return
	}
	tr := translate.ByName(lang)
	if tr == nil {
		fmt.Fprintf(os.Stderr, "unknown target language %q (supported: %v)\n", lang, translate.Names())
		os.Exit(1)
	}
	fmt.Println(tr.Translate(p))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hephaestus <generate|mutate|translate|fuzz|reduce|typegraph> [flags]`)
}
