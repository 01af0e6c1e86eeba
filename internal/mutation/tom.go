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

// TypeOverwriting applies the type overwriting mutation to a clone of p
// (see Overwrite).
func TypeOverwriting(p *ir.Program, b *types.Builtins, rng *rand.Rand) (*ir.Program, *TOMReport) {
	return Overwrite(typegraph.Analyze(ir.CloneProgram(p), b), rng)
}

// Overwrite applies the type overwriting mutation (Section 3.4.2) to the
// analysed program, a working copy the caller owns: it picks a random
// method, takes its type graph, selects a candidate node (a variable's
// declared type or an explicit type argument), and replaces its type with
// a randomly generated type the node is NOT relevant to (Definition 3.7).
// The resulting program is ill-typed by construction; a compiler that
// accepts it has a soundness bug.
//
// It returns a snapshot of the mutant and a report, or (nil, nil) when no
// applicable mutation point exists. Either way the working copy ends up
// as it was.
func Overwrite(a *typegraph.Analysis, rng *rand.Rand) (*ir.Program, *TOMReport) {
	p, b := a.Env.Program, a.Env.Builtins
	pool := newTypePool(p, b)

	// Randomly pick a method; fall through to the others if it offers no
	// overwritable node.
	for _, i := range rng.Perm(len(a.Methods)) {
		g := a.BuildGraph(a.Methods[i].Decl, a.Methods[i].Owner)
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
			at := slot(c, node)
			if at == nil || *at == nil {
				continue
			}
			orig := *at
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
				*at = t
				if checker.Check(p, b, checker.Options{}).OK() {
					*at = orig // compatible after all; undo
					continue
				}
				mutant := ir.CloneProgram(p)
				*at = orig
				return mutant, &TOMReport{
					Method:   a.Methods[i].Name,
					Kind:     c.Kind,
					Node:     g.Name(node),
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

// slot returns the type slot written at the candidate's relevance node,
// or nil when the candidate writes none there.
func slot(c *typegraph.Candidate, node typegraph.NodeID) *types.Type {
	switch c.Kind {
	case typegraph.VarDeclType:
		return &c.Var.DeclType
	case typegraph.NewTypeArgs:
		if i := paramIndexOf(c, node); i >= 0 && i < len(c.NewExpr.TypeArgs) {
			return &c.NewExpr.TypeArgs[i]
		}
	case typegraph.CallTypeArgs:
		if i := paramIndexOf(c, node); i >= 0 && i < len(c.CallExpr.TypeArgs) {
			return &c.CallExpr.TypeArgs[i]
		}
	}
	return nil
}

func paramIndexOf(c *typegraph.Candidate, node typegraph.NodeID) int {
	for i, id := range c.ParamNodeIDs {
		if id == node {
			return i
		}
	}
	return -1
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
