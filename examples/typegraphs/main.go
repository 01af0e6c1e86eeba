// Typegraphs: the paper's Figure 6 walked through in code.
//
// Builds the type graph of the running example program
//
//	open class A<T>
//	class B<T>(val f: A<T>) : A<T>()
//	fun m(): A<String> = B<String>(A<String>())
//
// prints it in Graphviz DOT form, evaluates the type preservation
// property on each erasure candidate (reproducing the paper's analysis:
// m.ret must stay, the two instantiations may go together), and prints
// the resulting TEM mutant. Then it demonstrates type relevance driving
// the TOM mutation on the same program.
//
// Run with:
//
//	go run ./examples/typegraphs
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mutation"
	"repro/internal/typegraph"
	"repro/internal/types"
)

func main() {
	fig6 := corpus.PaperProgramByID("FIG-6")
	prog := fig6.Program
	b := types.NewBuiltins()

	fmt.Println("--- the Figure 6 program ---")
	fmt.Println(ir.Print(prog))

	a := typegraph.Analyze(prog, b)
	m := prog.Functions()[0]
	g := a.BuildGraph(m, nil)

	fmt.Println("--- its type graph (DOT) ---")
	fmt.Println(g.Dot())

	fmt.Println("--- type preservation per candidate ---")
	for _, c := range g.Candidates {
		fmt.Printf("  %-12s at %-22s preserves alone: %v\n",
			c.Kind, g.Name(c.NodeID), typegraph.Preserves(g, c))
	}
	var news []*typegraph.Candidate
	for _, c := range g.Candidates {
		if c.Kind == typegraph.NewTypeArgs {
			news = append(news, c)
		}
	}
	if len(news) == 2 {
		fmt.Printf("  both instantiations together:            preserves: %v\n",
			typegraph.Preserves(g, news[0], news[1]))
		fmt.Printf("  all three candidates together:           preserves: %v\n",
			typegraph.Preserves(g, g.Candidates...))
	}

	fmt.Println("\n--- TEM applies the maximal preserving erasure ---")
	tem, report := mutation.TypeErasure(prog, b)
	for _, e := range report.Erased {
		fmt.Printf("  erased: %s\n", e)
	}
	fmt.Println(ir.Print(tem))

	fmt.Println("--- TOM overwrites a non-relevant type ---")
	tom, tomReport := mutation.TypeOverwriting(prog, b, rand.New(rand.NewSource(1)))
	if tom != nil {
		fmt.Printf("  %s\n\n", tomReport)
		fmt.Println(ir.Print(tom))
	}
}
