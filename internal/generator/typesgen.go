package generator

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// generateType computes the set of available types in the current scope —
// built-in types, instantiations of previously generated classes, and
// in-scope type parameters (Section 3.2, "Generating types") — and picks
// one at random. depth bounds recursive instantiation of type
// constructors.
func (g *Generator) generateType(sc *scope, depth int) types.Type {
	// Weighted choice among the sources.
	roll := g.rng.Float64()
	switch {
	case roll < 0.15 && sc != nil && len(sc.typeParams) > 0:
		return sc.typeParams[g.rng.Intn(len(sc.typeParams))]
	case roll < 0.60 && depth > 0 && len(g.classes) > 0:
		if t := g.instantiate(g.randomClass(), sc, depth-1, true); t != nil {
			return t
		}
	case roll < 0.68 && depth > 0 && g.cfg.Lambdas:
		// Function types give rise to lambdas and method references.
		n := g.rng.Intn(3)
		f := &types.Func{Ret: g.groundType(nil, depth-1)}
		for i := 0; i < n; i++ {
			f.Params = append(f.Params, g.groundType(nil, depth-1))
		}
		return f
	}
	return g.groundBuiltin()
}

// groundType is generateType restricted to ground (parameter-free) types;
// used for upper bounds, which must not be mutually recursive here.
func (g *Generator) groundType(sc *scope, depth int) types.Type {
	if depth > 0 && len(g.classes) > 0 && g.rng.Float64() < 0.3 {
		cls := g.randomClass()
		if t := g.instantiate(cls, nil, depth-1, true); t != nil {
			return t
		}
	}
	return g.groundBuiltin()
}

func (g *Generator) groundBuiltin() types.Type {
	all := g.b.All()
	return all[g.rng.Intn(len(all))]
}

func (g *Generator) randomClass() *ir.ClassDecl {
	return g.classes[g.rng.Intn(len(g.classes))]
}

// instantiate turns a class declaration into a usable type: its simple
// type, or its constructor applied to randomly chosen arguments that
// satisfy the parameters' upper bounds. Use-site projections are added
// occasionally when enabled. Returns nil when no conforming argument
// exists. With build false it makes the same draws for a parameterized
// class but builds nothing, and returns nil.
func (g *Generator) instantiate(cls *ir.ClassDecl, sc *scope, depth int, build bool) types.Type {
	t := g.classType(cls)
	ctor, ok := t.(*types.Constructor)
	if !ok {
		return t
	}
	var args []types.Type
	if build {
		args = make([]types.Type, len(ctor.Params))
	}
	for i, p := range ctor.Params {
		arg := g.conformingType(p.UpperBound(), sc, depth)
		if arg == nil {
			return nil
		}
		project := g.cfg.UseSiteVariance && p.Var == types.Invariant && g.rng.Float64() < 0.1
		if !build {
			continue
		}
		if project {
			// Wrap in an out-projection (A<out Number>), but only when
			// the projected bound still satisfies the parameter's upper
			// bound.
			if sup := types.Supertype(arg); !sup.Equal(arg) {
				_, isTop := sup.(types.Top)
				if !isTop && types.IsSubtype(sup, p.UpperBound()) {
					arg = &types.Projection{Var: types.Covariant, Bound: sup}
				}
			}
		}
		args[i] = arg
	}
	if !build {
		return nil
	}
	return ctor.Apply(args...)
}

// conformingType picks a random available type that is a subtype of bound:
// a conforming builtin, type parameter in scope, or class type, drawn
// uniformly from those in that order.
func (g *Generator) conformingType(bound types.Type, sc *scope, depth int) types.Type {
	if _, isTop := bound.(types.Top); isTop {
		return g.generateType(sc, depth)
	}
	builtins := g.builtinPool(bound)
	var buf [8]types.Type
	rest := buf[:0]
	if sc != nil {
		for _, p := range sc.typeParams {
			if types.IsSubtype(p, bound) {
				rest = append(rest, p)
			}
		}
	}
	if depth > 0 {
		for _, cls := range g.classes {
			switch ct := g.classType(cls).(type) {
			case *types.Simple:
				if types.IsSubtype(ct, bound) {
					rest = append(rest, ct)
				}
			case *types.Constructor:
				// A parameterized class conforms when some instantiation
				// does; try one. The instantiation draws from the RNG, so
				// it is drawn even when the class cannot reach the bound,
				// but built only when it may.
				reach := mayReach(ct, bound)
				if inst := g.instantiate(cls, sc, depth-1, reach); inst != nil && types.IsSubtype(inst, bound) {
					rest = append(rest, inst)
				}
			}
		}
	}
	n := len(builtins) + len(rest)
	if n == 0 {
		if bt, ok := bound.(*types.Simple); ok {
			return bt // the bound itself (reflexivity)
		}
		return nil
	}
	i := g.rng.Intn(n)
	if i < len(builtins) {
		return builtins[i]
	}
	return rest[i-len(builtins)]
}

// builtinPool returns the builtins that are subtypes of bound, in
// Builtins.All order, computed once per bound and program.
func (g *Generator) builtinPool(bound types.Type) []types.Type {
	pool, ok := g.builtinPools[bound]
	if !ok {
		for _, t := range g.b.All() {
			if types.IsSubtype(t, bound) {
				pool = append(pool, t)
			}
		}
		g.builtinPools[bound] = pool
	}
	return pool
}

// mayReach reports whether an application of ctor can be a subtype of
// bound. Subtyping to a nominal bound (a simple type or an application)
// needs the bound's name on the declared supertype chain, so a chain
// without it is a sure "no"; any other bound answers true.
func mayReach(ctor *types.Constructor, bound types.Type) bool {
	var name string
	switch bt := bound.(type) {
	case *types.Simple:
		name = bt.TypeName
	case *types.App:
		name = bt.Ctor.TypeName
	default:
		return true
	}
	var t types.Type = ctor
	for i := 0; i < 64 && t != nil; i++ { // the relation's cap on cyclic chains
		if t.Name() == name {
			return true
		}
		switch tt := t.(type) {
		case *types.Constructor:
			t = tt.Super
		case *types.App:
			t = tt.Ctor.Super
		case *types.Simple:
			t = tt.Super
		default:
			return true
		}
	}
	return t != nil // past the cap, let the relation decide
}

// subtypeOfTarget picks a concrete type conforming to a type-argument
// target that may be a projection (for generating New expressions against
// projected targets).
func (g *Generator) subtypeOfTarget(arg types.Type, sc *scope, depth int) types.Type {
	if proj, ok := arg.(*types.Projection); ok {
		if proj.Var == types.Covariant {
			if t := g.conformingType(proj.Bound, sc, depth); t != nil {
				return t
			}
		}
		return proj.Bound
	}
	return arg
}
