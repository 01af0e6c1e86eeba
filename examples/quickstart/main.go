// Quickstart: the whole Hephaestus pipeline in one file.
//
// Derives one campaign unit — a random well-typed program and its
// mutants: the type erasure mutant (still well-typed, more inference
// work for the compiler) and the type overwriting mutant (ill-typed by
// construction) — translates the program to Kotlin, and compiles every
// input with the three simulated compilers, judging each outcome
// against the test oracle.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/compilers"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/translate"
)

func main() {
	// 1. Derive seed 7's unit exactly as a campaign would.
	derive, err := campaign.NewDerivation(campaign.DefaultOptions())
	if err != nil {
		panic(err)
	}
	u := derive.Derive(7)
	fmt.Printf("generated program: %d AST nodes\n", ir.CountNodes(u.Program))
	for _, in := range u.Inputs {
		switch r := in.Report.(type) {
		case *mutation.TEMReport:
			fmt.Printf("TEM erased %d type annotations (program is still well-typed)\n", len(r.Erased))
		case *mutation.TOMReport:
			fmt.Printf("%s injected a type error: %s\n", in.Kind, r)
		case *mutation.REMReport:
			fmt.Printf("REM %s (program is still well-typed)\n", r)
		}
	}

	// 2. Translate to a concrete language.
	fmt.Printf("\n--- Kotlin translation (first lines) ---\n")
	printHead(translate.ByName("kotlin").Translate(u.Program), 12)

	// 3. Compile every input with each simulated compiler and consult
	// the oracle.
	fmt.Printf("\n--- compilations ---\n")
	for _, comp := range compilers.All() {
		for _, in := range u.Inputs {
			res := comp.Compile(in.Prog, nil)
			verdict := oracle.Judge(in.Kind, res)
			fmt.Printf("%-8s %-14s %-6s", comp.Name(), in.Kind, verdict)
			if len(res.Triggered) > 0 {
				fmt.Printf("  (triggered %s)", res.Triggered[0].ID)
			}
			fmt.Println()
		}
	}
}

func printHead(s string, n int) {
	count := 0
	start := 0
	for i, r := range s {
		if r == '\n' {
			count++
			if count == n {
				fmt.Println(s[start:i])
				fmt.Println("...")
				return
			}
		}
	}
	fmt.Println(s)
}
