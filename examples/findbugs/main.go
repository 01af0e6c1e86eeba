// Findbugs: a miniature testing campaign, the paper's Section 4 workload.
//
// Runs the generator plus the mutations against the simulated javac,
// kotlinc, and groovyc; deduplicates the findings; prints each bug with
// its symptom and the technique that revealed it; and finishes with the
// Figure 7c attribution table and a reduced test case for the first
// groovyc find — reduced from the derived input that actually triggered
// it, which for a mutation-found bug is the mutant, not the base
// program.
//
// Run with:
//
//	go run ./examples/findbugs
package main

import (
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/reduce"
)

func main() {
	opts := campaign.DefaultOptions()
	opts.Programs = 120
	fmt.Printf("fuzzing the simulated compilers with %d programs (plus mutants)...\n\n", opts.Programs)
	report := campaign.Run(opts)

	findings := report.Findings()
	for _, f := range findings {
		fmt.Printf("  %-20s %-8s %-6s via %-9s (first seed %d)\n",
			f.ID, f.Compiler, f.Symptom, f.Technique, f.FirstSeed)
	}
	fmt.Printf("\n%d distinct bugs found\n\n", len(findings))
	fmt.Println(report.Figure7c())

	// Reduce the first groovyc finding to a minimal trigger.
	for _, f := range findings {
		if f.Compiler != "groovyc" {
			continue
		}
		in, comp, err := report.Trigger(f.ID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("reducing the seed-%d %s trigger for %s: %d nodes", f.FirstSeed, in.Kind, f.ID,
			ir.CountNodes(in.Prog))
		reduced := reduce.ForBug(in.Prog, harness.WrapCompiler(comp), f.ID, opts.Harness)
		fmt.Printf(" -> %d nodes\n\n", ir.CountNodes(reduced))
		fmt.Println(ir.Print(reduced))
		break
	}
}
