// Package mutation implements the paper's two transformation-based testing
// techniques (Section 3.4): the type erasure mutation (TEM), a
// semantics-preserving transformation that removes as much type
// information as the type-preservation property allows, and the type
// overwriting mutation (TOM), a fault-injecting transformation that
// replaces a type with one the program point is not relevant to.
//
// Both mutations run on a type-graph analysis (internal/typegraph) of a
// working copy the caller owns, and rewrite it through the candidates' AST
// back-pointers. Each snapshots its mutant with ir.CloneProgram and then
// puts the copy back as it was, so TEM and then TOM can share one copy and
// one analysis. TypeErasure and TypeOverwriting clone their input first,
// so the caller's program is never disturbed.
package mutation

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// ErasedPoint describes one piece of type information TEM removed.
type ErasedPoint struct {
	Method string
	Kind   typegraph.CandidateKind
	Detail string
}

// TEMReport summarizes a type-erasure mutation.
type TEMReport struct {
	Erased []ErasedPoint
	// CandidatesSeen and CandidatesPreserving count the per-method
	// filtering stages of Algorithm 2 (lines 4 and 5).
	CandidatesSeen       int
	CandidatesPreserving int
	// CombinationsTried counts preservation checks performed during the
	// maximal-set search (lines 6–9).
	CombinationsTried int
	// CapHit reports that CombinationsTried exceeded MaxCombinations. The
	// budget is shared by the whole program, so the method that exhausted
	// it and every method searched after it kept all their annotations.
	CapHit bool
	// RepairedMethods counts methods whose erasures were rolled back by
	// the final verification pass: the intra-procedural type-graph model
	// occasionally over-approximates what the checker's inference can
	// recover (for instance through chains of mutually erased call type
	// arguments), and rolling those methods back restores the guarantee
	// that TEM output is well-typed by construction.
	RepairedMethods int
}

// Changed reports whether the mutation removed anything.
func (r *TEMReport) Changed() bool { return len(r.Erased) > 0 }

// TypeErasure applies the type erasure mutation to a clone of p (see
// Erase).
func TypeErasure(p *ir.Program, b *types.Builtins) (*ir.Program, *TEMReport) {
	return Erase(typegraph.Analyze(ir.CloneProgram(p), b))
}

// Erase applies the type erasure mutation (Algorithm 2) to the analysed
// program, a working copy the caller owns. For every method it builds the
// type graph, keeps the candidates that individually preserve their types
// (Definition 3.5), and erases the maximal combination for which the
// generalized type preservation property holds (Definition 3.6). By
// construction the mutant is well-typed whenever the program was.
//
// It returns a snapshot of the mutant and a report, and undoes its
// erasures, so the working copy ends up as it was.
func Erase(a *typegraph.Analysis) (*ir.Program, *TEMReport) {
	p := a.Env.Program
	report := &TEMReport{}
	cyclic := cyclicFunctions(p)

	// erased maps each method TEM erased in to its erasures, so the
	// verification pass can roll a method back wholesale.
	erased := map[string]erasure{}
	for _, m := range a.Methods {
		g := a.BuildGraph(m.Decl, m.Owner)
		report.CandidatesSeen += len(g.Candidates)
		// Line 5: drop candidates that do not preserve on their own.
		// Return types additionally require the function to sit outside
		// every call cycle: return-type inference is inter-procedural,
		// and erasing a return annotation inside a cycle makes inference
		// recursive no matter what the (intra-procedural) type graph says.
		var nodes []*typegraph.Candidate
		for _, c := range g.Candidates {
			if c.Kind == typegraph.ReturnType && cyclic[c.Fun] {
				continue
			}
			if typegraph.Preserves(g, c) {
				nodes = append(nodes, c)
			}
		}
		report.CandidatesPreserving += len(nodes)
		// Lines 6–9: find the maximal omittable combination.
		best := maximalPreservingSet(g, nodes, &report.CombinationsTried)
		if len(best) == 0 {
			continue
		}
		e := erased[m.Name] // methods sharing a name share their rollback
		for _, c := range best {
			e.undo = append(e.undo, eraseCandidate(c))
			e.points = append(e.points, ErasedPoint{Method: m.Name, Kind: c.Kind, Detail: g.Name(c.NodeID)})
		}
		erased[m.Name] = e
	}

	report.CapHit = report.CombinationsTried > MaxCombinations

	// Verification pass: the graph model is intra-procedural and can in
	// rare cases over-approximate the checker's inference power. Roll
	// back the erasures of any method the checker still complains about.
	for round := 0; round < 16; round++ {
		res := checker.Check(p, a.Env.Builtins, checker.Options{})
		if res.OK() {
			break
		}
		undone := false
		for _, d := range res.Diags {
			e, ok := erased[d.Where]
			if !ok {
				continue
			}
			e.restore()
			delete(erased, d.Where)
			report.RepairedMethods++
			undone = true
		}
		if !undone {
			// Diagnostics point at untouched methods (cross-method
			// effects); roll everything back.
			for _, e := range erased {
				e.restore()
				report.RepairedMethods++
			}
			clear(erased)
		}
	}
	mutant := ir.CloneProgram(p)
	for _, m := range a.Methods {
		e := erased[m.Name]
		delete(erased, m.Name)
		e.restore()
		report.Erased = append(report.Erased, e.points...)
	}
	return mutant, report
}

// erasure is what TEM erased in one method: the points it reports and
// the rewrites that put them back.
type erasure struct {
	points []ErasedPoint
	undo   []func()
}

func (e erasure) restore() {
	for _, undo := range e.undo {
		undo()
	}
}

// MaxCombinations is the number of preservation checks one TEM run may
// spend on its maximal-set searches, across all methods of the program.
const MaxCombinations = 4096

// maximalPreservingSet enumerates combinations of candidate nodes from
// largest to smallest and returns the first combination that satisfies
// generalized type preservation — the maximal erasable set. The
// enumeration is worst-case exponential (as the paper notes), but the
// line-5 filter and the early break keep it cheap in practice; a hard cap
// bounds pathological inputs. The checks run through one
// typegraph.Search, which answers a combination from the memo of earlier
// failures when it can, so most checks never re-infer a node; every
// check counts in tried either way.
func maximalPreservingSet(g *typegraph.Graph, nodes []*typegraph.Candidate, tried *int) []*typegraph.Candidate {
	s := typegraph.NewSearch(g, nodes)
	for k := len(nodes); k >= 1; k-- {
		var found []*typegraph.Candidate
		combinations(len(nodes), k, func(idx []int) bool {
			*tried++
			if *tried > MaxCombinations {
				return false
			}
			if s.Preserves(idx) {
				found = make([]*typegraph.Candidate, k)
				for i, j := range idx {
					found[i] = nodes[j]
				}
				return false
			}
			return true
		})
		if found != nil {
			return found
		}
		if *tried > MaxCombinations {
			break
		}
	}
	return nil
}

// combinations calls visit with every size-k index combination of [0, n)
// until visit returns false.
func combinations(n, k int, visit func([]int) bool) {
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !visit(idx) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// eraseCandidate rewrites the AST to remove the candidate's type
// information (the four erasure cases of Section 3.4.1) and returns the
// rewrite that puts it back.
func eraseCandidate(c *typegraph.Candidate) (undo func()) {
	switch c.Kind {
	case typegraph.VarDeclType:
		v, t := c.Var, c.Var.DeclType
		v.DeclType = nil
		return func() { v.DeclType = t }
	case typegraph.NewTypeArgs:
		n, ts := c.NewExpr, c.NewExpr.TypeArgs
		n.TypeArgs = nil
		return func() { n.TypeArgs = ts }
	case typegraph.CallTypeArgs:
		call, ts := c.CallExpr, c.CallExpr.TypeArgs
		call.TypeArgs = nil
		return func() { call.TypeArgs = ts }
	default:
		f, t := c.Fun, c.Fun.Ret
		f.Ret = nil
		return func() { f.Ret = t }
	}
}

func (p ErasedPoint) String() string {
	return fmt.Sprintf("%s: erased %s at %s", p.Method, p.Kind, p.Detail)
}

// cyclicFunctions over-approximates the set of functions participating in
// a call cycle. Calls are resolved by name against every function in the
// program (names are unique in generated programs; ambiguity only widens
// the set, which is safe).
func cyclicFunctions(p *ir.Program) map[*ir.FuncDecl]bool {
	byName := map[string][]*ir.FuncDecl{}
	for _, f := range ir.AllMethods(p) {
		byName[f.Name] = append(byName[f.Name], f)
	}
	edges := map[*ir.FuncDecl][]*ir.FuncDecl{}
	for _, f := range ir.AllMethods(p) {
		if f.Body == nil {
			continue
		}
		ir.Walk(f.Body, func(n ir.Node) bool {
			if call, ok := n.(*ir.Call); ok {
				edges[f] = append(edges[f], byName[call.Name]...)
			}
			if mref, ok := n.(*ir.MethodRef); ok {
				edges[f] = append(edges[f], byName[mref.Method]...)
			}
			return true
		})
	}
	cyclic := map[*ir.FuncDecl]bool{}
	for _, f := range ir.AllMethods(p) {
		// f is cyclic when f is reachable from f through one or more
		// call edges.
		seen := map[*ir.FuncDecl]bool{}
		stack := append([]*ir.FuncDecl{}, edges[f]...)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if g == f {
				cyclic[f] = true
				break
			}
			if seen[g] {
				continue
			}
			seen[g] = true
			stack = append(stack, edges[g]...)
		}
	}
	return cyclic
}
