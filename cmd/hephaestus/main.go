// Command hephaestus is the CLI front end of the Hephaestus reproduction:
// generate random well-typed programs, apply the type erasure and type
// overwriting mutations, translate programs to Java/Kotlin/Groovy, fuzz
// the simulated compilers, and reduce bug-triggering test cases.
//
// Usage:
//
//	hephaestus generate  [-seed N] [-lang ir|java|kotlin|groovy]
//	hephaestus mutate    [-seed N] [-lang ...]     show TEM and TOM mutants
//	hephaestus translate [-seed N] -lang kotlin    translate to a language
//	hephaestus fuzz      [-seed N] [-n programs] [-workers W] [-stats]
//	                     [-compile-timeout D] [-retries R] [-chaos RATE]
//	                     [-state DIR] [-resume] [-snapshot-every K]
//	                     [-debug-addr ADDR] [-heartbeat DUR]
//	                                               run a campaign
//	hephaestus reduce    [-seed N]                 reduce a bug trigger
//	hephaestus typegraph [-seed N]                 dump type graphs (DOT)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/typegraph"
	"repro/internal/types"
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

	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obs, err := cfg.StartObservability(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer obs.Close()
	coreCfg.Metrics = obs.Registry
	coreCfg.Trace = obs.Trace

	h := core.New(coreCfg)
	switch cmd {
	case "generate":
		tc := h.GenerateTestCaseSeed(cfg.Seed)
		emit(h, tc.Program, *lang)
	case "mutate":
		tc := h.GenerateTestCaseSeed(cfg.Seed)
		fmt.Println("== original ==")
		emit(h, tc.Program, *lang)
		if tc.TEM != nil {
			fmt.Println("\n== TEM mutant (well-typed; erased points below) ==")
			for _, e := range tc.TEMReport.Erased {
				fmt.Printf("  %s\n", e)
			}
		} else {
			fmt.Println("\n== TEM: nothing erasable ==")
		}
		if r := tc.TEMReport; r.CapHit {
			fmt.Printf("  cap hit: %d combinations tried, budget %d; later methods kept all annotations\n",
				r.CombinationsTried, mutation.MaxCombinations)
		}
		if tc.TEM != nil {
			emit(h, tc.TEM, *lang)
		}
		if tc.TOM != nil {
			fmt.Printf("\n== TOM mutant (ill-typed): %s ==\n", tc.TOMReport)
			emit(h, tc.TOM, *lang)
		} else {
			fmt.Println("\n== TOM: no overwrite point ==")
		}
		if tc.REM != nil {
			fmt.Printf("\n== REM mutant (well-typed): %s ==\n", tc.REMReport)
			emit(h, tc.REM, *lang)
		} else {
			fmt.Println("\n== REM: no resolution site ==")
		}
	case "translate":
		if *lang == "ir" {
			fmt.Fprintln(os.Stderr, "translate needs -lang java|kotlin|groovy")
			os.Exit(2)
		}
		tc := h.GenerateTestCaseSeed(cfg.Seed)
		emit(h, tc.Program, *lang)
	case "fuzz":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		c := h.FuzzCampaign(cfg.Programs)
		stopBeat := campaign.StartHeartbeat(os.Stderr, c.Status, cfg.Heartbeat)
		if err := c.Start(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
		report, err := c.Wait()
		stopBeat()
		findings := core.Findings(report)
		if report != nil && report.Recovery.Resumed {
			fmt.Printf("resumed: %d units restored (%d from snapshot prefix, %d journal records replayed)\n\n",
				report.Recovery.Recovered, report.Recovery.SnapshotSeq, report.Recovery.Replayed)
		}
		if err != nil {
			// Flush what the truncated run still found — findings, the
			// partial figure, the fault ledger, the stage stats — then
			// signal the incomplete campaign through the exit code. A
			// durable run has also just snapshotted this state.
			fmt.Fprintf(os.Stderr, "campaign aborted: %v\n", err)
			if report == nil {
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "partial report: %d distinct bugs before the abort\n", len(findings))
			for _, f := range findings {
				fmt.Printf("  %-22s %-8s %-6s found by %-9s (seed %d)\n",
					f.BugID, f.Compiler, f.Symptom, f.Technique, f.FirstSeed)
			}
			printDifferential(report)
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
		fmt.Printf("campaign: %d programs (plus mutants), %d distinct bugs\n\n",
			cfg.Programs, len(findings))
		for _, f := range findings {
			fmt.Printf("  %-22s %-8s %-6s found by %-9s (seed %d)\n",
				f.BugID, f.Compiler, f.Symptom, f.Technique, f.FirstSeed)
		}
		fmt.Println()
		printDifferential(report)
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
	case "reduce":
		tc := h.GenerateTestCaseSeed(cfg.Seed)
		comp := h.Compilers()[0]
		verdict, res := h.Judge(oracle.Generated, comp, tc.Program)
		if verdict == oracle.Pass || len(res.Triggered) == 0 {
			fmt.Printf("seed %d triggers no %s bug; try another seed\n", cfg.Seed, comp.Name())
			return
		}
		bug := res.Triggered[0]
		fmt.Printf("reducing seed %d for %s (%d nodes)...\n", cfg.Seed, bug.ID, ir.CountNodes(tc.Program))
		reduced := h.ReduceFor(tc.Program, comp, bug.ID)
		fmt.Printf("reduced to %d nodes:\n\n", ir.CountNodes(reduced))
		emit(h, reduced, *lang)
	case "typegraph":
		tc := h.GenerateTestCaseSeed(cfg.Seed)
		a := typegraph.Analyze(tc.Program, types.NewBuiltins())
		for name, g := range a.BuildAll() {
			fmt.Printf("// method %s (%d nodes, %d edges, %d candidates)\n",
				name, g.NumNodes(), g.NumEdges(), len(g.Candidates))
			fmt.Println(g.Dot())
		}
	default:
		usage()
		os.Exit(2)
	}
}

func emit(h *core.Hephaestus, p *ir.Program, lang string) {
	if lang == "ir" {
		fmt.Println(ir.Print(p))
		return
	}
	src, err := h.Translate(p, lang)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(src)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hephaestus <generate|mutate|translate|fuzz|reduce|typegraph> [flags]`)
}

// printDifferential renders the differential oracle's findings when
// that mode is active: the distinct-disagreement summary and the
// cross-compiler conflict matrix.
func printDifferential(report *campaign.Report) {
	if report.Opts.Oracle != campaign.Differential {
		return
	}
	fmt.Printf("differential oracle: %d distinct disagreements\n\n", len(report.Disagreements))
	if len(report.Disagreements) > 0 {
		fmt.Println(report.DiffSummary())
		fmt.Println(report.DiffPairs())
	}
}
