package mutation

import (
	"fmt"
	"math/rand"

	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// TOMReport records what the type overwriting mutation changed — the
// "mutated program points" Hephaestus logs so URB failures can be located
// without a reducer (Section 4.1).
type TOMReport struct {
	Method   string
	Kind     typegraph.CandidateKind
	Node     string
	Original types.Type
	Injected types.Type
}

// Changed reports whether an overwrite was performed.
func (r *TOMReport) Changed() bool { return r != nil && r.Injected != nil }

func (r *TOMReport) String() string {
	if !r.Changed() {
		return "no overwrite"
	}
	return fmt.Sprintf("%s: overwrote %s at %s: %s -> %s",
		r.Method, r.Kind, r.Node, r.Original, r.Injected)
}

// TypeOverwriting applies the type overwriting mutation (Section 3.4.2) to
// p: it picks a random method, builds its type graph, selects a candidate
// node (a variable's declared type or an explicit type argument), and
// replaces its type with a randomly generated type the node is NOT
// relevant to (Definition 3.7). The resulting program is ill-typed by
// construction; a compiler that accepts it has a soundness bug.
//
// It returns the mutated clone and a report, or (nil, nil) when no
// applicable mutation point exists.
func TypeOverwriting(p *ir.Program, b *types.Builtins, rng *rand.Rand) (*ir.Program, *TOMReport) {
	clone := ir.CloneProgram(p)
	a := typegraph.Analyze(clone, b)

	type site struct {
		name  string
		m     *ir.FuncDecl
		owner *ir.ClassDecl
	}
	var sites []site
	for _, d := range clone.Decls {
		switch t := d.(type) {
		case *ir.FuncDecl:
			sites = append(sites, site{t.Name, t, nil})
		case *ir.ClassDecl:
			for _, m := range t.Methods {
				sites = append(sites, site{t.Name + "." + m.Name, m, t})
			}
		}
	}
	pool := newTypePool(clone, b)

	// Randomly pick a method; fall through to the others if it offers no
	// overwritable node.
	order := rng.Perm(len(sites))
	for _, si := range order {
		s := sites[si]
		g := a.BuildGraph(s.m, s.owner)
		cands := overwritable(g)
		if len(cands) == 0 {
			continue
		}
		for _, ci := range rng.Perm(len(cands)) {
			c := cands[ci]
			nodes := c.RelevanceNodes()
			if len(nodes) == 0 {
				continue
			}
			node := nodes[rng.Intn(len(nodes))]
			orig := originalTypeAt(c, node)
			if orig == nil {
				continue
			}
			// Generate a type the node is not relevant to, using the
			// available types of the current scope so the compiler
			// compares types with diverse shapes (Section 3.4.2). The
			// relevance property (Definition 3.7) prunes obviously
			// compatible types; a final reference-checker verification
			// guards the residual cases relevance over-approximates
			// (covariant consumers accept subtypes of the inferred type).
			const attempts = 32
			for try := 0; try < attempts; try++ {
				t := pool.random(rng)
				if t.Equal(orig) {
					continue
				}
				if typegraph.RelevantTo(g, c, node, t) {
					continue
				}
				overwrite(c, node, t)
				if checker.Check(clone, b, checker.Options{}).OK() {
					overwrite(c, node, orig) // compatible after all; undo
					continue
				}
				return clone, &TOMReport{
					Method:   s.name,
					Kind:     c.Kind,
					Node:     node,
					Original: orig,
					Injected: t,
				}
			}
		}
	}
	return nil, nil
}

// overwritable selects the TOM-applicable candidates: variable
// declarations and type-parameter occurrences with explicit arguments.
func overwritable(g *typegraph.Graph) []*typegraph.Candidate {
	var out []*typegraph.Candidate
	for _, c := range g.Candidates {
		switch c.Kind {
		case typegraph.VarDeclType, typegraph.NewTypeArgs, typegraph.CallTypeArgs:
			out = append(out, c)
		}
	}
	return out
}

// originalTypeAt returns the type currently written at the candidate's
// relevance node.
func originalTypeAt(c *typegraph.Candidate, node string) types.Type {
	switch c.Kind {
	case typegraph.VarDeclType:
		return c.Var.DeclType
	case typegraph.NewTypeArgs:
		if i := paramIndexOf(c, node); i >= 0 && i < len(c.NewExpr.TypeArgs) {
			return c.NewExpr.TypeArgs[i]
		}
	case typegraph.CallTypeArgs:
		if i := paramIndexOf(c, node); i >= 0 && i < len(c.CallExpr.TypeArgs) {
			return c.CallExpr.TypeArgs[i]
		}
	}
	return nil
}

func paramIndexOf(c *typegraph.Candidate, node string) int {
	for i, id := range c.ParamNodeIDs {
		if id == node {
			return i
		}
	}
	return -1
}

// overwrite substitutes the injected type at the candidate's node.
func overwrite(c *typegraph.Candidate, node string, t types.Type) {
	switch c.Kind {
	case typegraph.VarDeclType:
		c.Var.DeclType = t
	case typegraph.NewTypeArgs:
		if i := paramIndexOf(c, node); i >= 0 {
			c.NewExpr.TypeArgs[i] = t
		}
	case typegraph.CallTypeArgs:
		if i := paramIndexOf(c, node); i >= 0 {
			c.CallExpr.TypeArgs[i] = t
		}
	}
}

// typePool is the set of types available for injection: ground builtins
// and instantiations of the program's own classes.
type typePool struct {
	ground []types.Type
	ctors  []*types.Constructor
}

func newTypePool(p *ir.Program, b *types.Builtins) *typePool {
	// Defaultable is shared and read-only; the pool grows its own copy.
	pool := &typePool{ground: append([]types.Type(nil), b.Defaultable()...)}
	for _, cls := range p.Classes() {
		switch t := cls.Type().(type) {
		case *types.Simple:
			pool.ground = append(pool.ground, t)
		case *types.Constructor:
			pool.ctors = append(pool.ctors, t)
		}
	}
	return pool
}

// random draws a type, recursively instantiating constructors so that the
// injected types have diverse shapes.
func (p *typePool) random(rng *rand.Rand) types.Type {
	return p.randomDepth(rng, 2)
}

func (p *typePool) randomDepth(rng *rand.Rand, depth int) types.Type {
	if depth > 0 && len(p.ctors) > 0 && rng.Intn(3) == 0 {
		ctor := p.ctors[rng.Intn(len(p.ctors))]
		args := make([]types.Type, len(ctor.Params))
		for i, tp := range ctor.Params {
			arg := p.randomDepth(rng, depth-1)
			bound := tp.UpperBound()
			if !types.IsSubtype(arg, bound) {
				// Respect declared bounds so the injected error is the
				// intended one, not an accidental malformed type.
				arg = bound
			}
			args[i] = arg
		}
		return ctor.Apply(args...)
	}
	return p.ground[rng.Intn(len(p.ground))]
}
