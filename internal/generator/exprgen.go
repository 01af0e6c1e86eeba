package generator

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// generateExpr produces a random expression whose static type conforms to
// the requested type t (the type-driven approach of Section 3.2: first a
// type, then an expression of a subtype). Generation never fails: when no
// richer strategy applies — or the depth budget is exhausted — it falls
// back to a constant val(t), which translators render as a literal or a
// cast null expression.
func (g *Generator) generateExpr(t types.Type, sc *scope, depth int) ir.Expr {
	if depth <= 0 {
		return g.leafExpr(t, sc)
	}
	var kinds [maxStrategies]strategy
	strategies := kinds[:0]

	name, haveVar := g.scopeVarOf(t, sc)
	if haveVar {
		strategies = append(strategies, useVar)
	}
	strategies = append(strategies, newObject, callMethod, accessField)
	if g.cfg.Conditionals && depth >= 2 {
		strategies = append(strategies, conditional)
	}
	ft, isFunc := t.(*types.Func)
	if isFunc {
		if g.cfg.Lambdas {
			strategies = append(strategies, lambda)
		}
		if g.cfg.MethodReferences {
			strategies = append(strategies, methodRef)
		}
	}
	if depth >= 3 {
		strategies = append(strategies, block)
	}

	// Try strategies in random order; the first that produces something
	// wins, otherwise fall back to a leaf.
	var order [maxStrategies]int
	perm := order[:len(strategies)]
	g.permInto(perm)
	for _, i := range perm {
		var e ir.Expr
		switch strategies[i] {
		case useVar:
			e = &ir.VarRef{Name: name}
		case newObject:
			e = g.newExpr(t, sc, depth)
		case callMethod:
			e = g.resolveMethodCall(t, sc, depth)
		case accessField:
			e = g.resolveFieldAccess(t, sc, depth)
		case conditional:
			e = &ir.If{
				Cond: g.boolExpr(sc, depth-1),
				Then: g.generateExpr(t, sc, depth-1),
				Else: g.generateExpr(t, sc, depth-1),
			}
		case lambda:
			e = g.lambdaExpr(ft, sc, depth)
		case methodRef:
			e = g.methodRefExpr(ft, sc, depth)
		case block:
			e = g.blockExpr(t, sc, depth)
		}
		if e != nil {
			return e
		}
	}
	return g.leafExpr(t, sc)
}

// strategy is one way generateExpr may build an expression. generateExpr
// lists the applicable ones in this order and tries them in the order of
// a permutation drawn over the list, so the order is part of what a seed
// produces.
type strategy uint8

const (
	useVar strategy = iota
	newObject
	callMethod
	accessField
	conditional
	lambda
	methodRef
	block
	maxStrategies
)

// leafExpr terminates recursion: a conforming scope variable or val(t).
func (g *Generator) leafExpr(t types.Type, sc *scope) ir.Expr {
	if name, ok := g.scopeVarOf(t, sc); ok && g.rng.Intn(2) == 0 {
		return &ir.VarRef{Name: name}
	}
	return &ir.Const{Type: t}
}

// scopeVarOf picks a scope variable conforming to t and returns its name,
// or reports that there is none.
func (g *Generator) scopeVarOf(t types.Type, sc *scope) (string, bool) {
	if sc == nil {
		return "", false
	}
	var buf [8]string
	matches := buf[:0]
	for _, v := range sc.vars {
		if types.IsSubtype(v.typ, t) {
			matches = append(matches, v.name)
		}
	}
	if len(matches) == 0 {
		return "", false
	}
	return matches[g.rng.Intn(len(matches))], true
}

// newExpr builds a constructor invocation of a type conforming to t:
// either t's own class or a subclass discovered through unification.
func (g *Generator) newExpr(t types.Type, sc *scope, depth int) ir.Expr {
	switch tt := t.(type) {
	case types.Top:
		if len(g.classes) == 0 {
			return nil
		}
		cls := g.randomClass()
		inst := g.instantiateConcrete(cls, sc, depth-1)
		if inst == nil {
			return nil
		}
		return g.buildNew(cls, inst, sc, depth)
	case *types.Simple:
		cls := g.classByName(tt.TypeName)
		if cls != nil && cls.Kind == ir.RegularClass {
			if g.rng.Intn(3) > 0 {
				return g.buildNew(cls, tt, sc, depth)
			}
		}
		return g.subclassNew(t, sc, depth)
	case *types.App:
		cls := g.classByName(tt.Ctor.TypeName)
		if cls != nil && cls.Kind == ir.RegularClass && g.rng.Intn(3) > 0 {
			// Resolve projected arguments to concrete instantiations.
			args := make([]types.Type, len(tt.Args))
			for i, a := range tt.Args {
				args[i] = g.subtypeOfTarget(a, sc, depth-1)
			}
			inst := tt.Ctor.Apply(args...)
			if types.IsSubtype(inst, t) {
				return g.buildNew(cls, inst, sc, depth)
			}
		}
		return g.subclassNew(t, sc, depth)
	}
	return nil
}

// instantiateConcrete instantiates a class with projection-free arguments.
func (g *Generator) instantiateConcrete(cls *ir.ClassDecl, sc *scope, depth int) types.Type {
	t := g.classType(cls)
	ctor, ok := t.(*types.Constructor)
	if !ok {
		return t
	}
	args := make([]types.Type, len(ctor.Params))
	for i, p := range ctor.Params {
		arg := g.conformingType(p.UpperBound(), sc, depth)
		if arg == nil {
			return nil
		}
		args[i] = arg
	}
	return ctor.Apply(args...)
}

// subclassNew searches previously declared classes for one whose
// instantiation is a subtype of t (exercising subtyping rules), builds the
// instantiation through unification, and emits its constructor call.
func (g *Generator) subclassNew(t types.Type, sc *scope, depth int) ir.Expr {
	base := g.pushPerm(len(g.classes))
	defer g.popPerm(base)
	for k := range len(g.classes) {
		cls := g.classes[g.perm[base+k]]
		if cls.Kind != ir.RegularClass {
			continue
		}
		inst := g.unifyInstantiation(cls, t, sc, depth-1)
		if inst == nil {
			continue
		}
		return g.buildNew(cls, inst, sc, depth)
	}
	return nil
}

// unifyInstantiation finds an instantiation of cls conforming to t, using
// unification to bind parameters forced by t and random conforming types
// for the rest. Returns nil when impossible.
func (g *Generator) unifyInstantiation(cls *ir.ClassDecl, t types.Type, sc *scope, depth int) types.Type {
	switch ct := g.classType(cls).(type) {
	case *types.Simple:
		if types.IsSubtype(ct, t) {
			return ct
		}
		return nil
	case *types.Constructor:
		sigma := types.Unify(ct.Self(), t)
		if sigma == nil {
			return nil
		}
		if !g.completeSubstitution(sigma, ct.Params, sc, depth) {
			return nil
		}
		args := make([]types.Type, len(ct.Params))
		for i, p := range ct.Params {
			bound, _ := sigma.Lookup(p)
			args[i] = stripProjections(bound)
		}
		inst := ct.Apply(args...)
		if !types.IsSubtype(inst, t) {
			return nil
		}
		return inst
	}
	return nil
}

// completeSubstitution binds every unbound parameter to a random type
// conforming to its (substituted) bound, and validates already-bound
// parameters against their bounds. Returns false when no conforming type
// exists.
func (g *Generator) completeSubstitution(sigma *types.Substitution, params []*types.Parameter, sc *scope, depth int) bool {
	for _, p := range params {
		bound := sigma.Apply(p.UpperBound())
		if got, ok := sigma.Lookup(p); ok {
			check := got
			if proj, isProj := got.(*types.Projection); isProj {
				check = proj.Bound
			}
			if !types.HasFreeParameters(bound) && !types.IsSubtype(check, bound) {
				return false
			}
			continue
		}
		arg := g.conformingType(bound, sc, depth)
		if arg == nil {
			return false
		}
		sigma.Bind(p, arg)
	}
	return true
}

// buildNew emits new C<args>(ctor-args) for a concrete instantiation.
func (g *Generator) buildNew(cls *ir.ClassDecl, inst types.Type, sc *scope, depth int) ir.Expr {
	n := &ir.New{Class: g.classType(cls)}
	sigma := types.CaptureSubst(inst)
	if app, ok := inst.(*types.App); ok {
		n.TypeArgs = append([]types.Type{}, app.Args...)
	}
	for _, f := range cls.Fields {
		want := sigma.Apply(f.Type)
		n.Args = append(n.Args, g.generateExpr(want, sc, depth-1))
	}
	return n
}

// lambdaExpr builds λ(x̄: t̄).e for a function-typed target.
func (g *Generator) lambdaExpr(ft *types.Func, sc *scope, depth int) ir.Expr {
	l := &ir.Lambda{}
	inner := &scope{curClass: nil, typeParams: nil}
	if sc != nil {
		inner.vars = append(inner.vars, sc.vars...)
		inner.typeParams = sc.typeParams
		inner.curClass = sc.curClass
	}
	for _, pt := range ft.Params {
		name := g.freshVarName()
		l.Params = append(l.Params, &ir.ParamDecl{Name: name, Type: pt})
		inner.withVar(name, pt, false)
	}
	l.Body = g.generateExpr(ft.Ret, inner, depth-1)
	return l
}

// methodRefExpr builds e::m when a declared method's signature conforms to
// the target function type.
func (g *Generator) methodRefExpr(ft *types.Func, sc *scope, depth int) ir.Expr {
	base := g.pushPerm(len(g.classes))
	defer g.popPerm(base)
	for k := range len(g.classes) {
		cls := g.classes[g.perm[base+k]]
		if cls.Kind != ir.RegularClass || len(cls.TypeParams) > 0 {
			continue
		}
		for _, m := range cls.Methods {
			if len(m.TypeParams) > 0 || m.Ret == nil || len(m.Params) != len(ft.Params) {
				continue
			}
			sig := &types.Func{Ret: m.Ret}
			okParams := true
			for _, p := range m.Params {
				if p.Type == nil {
					okParams = false
					break
				}
				sig.Params = append(sig.Params, p.Type)
			}
			if !okParams || !types.IsSubtype(sig, ft) {
				continue
			}
			recv := g.generateExpr(g.classType(cls), sc, depth-1)
			return &ir.MethodRef{Recv: recv, Method: m.Name}
		}
	}
	return nil
}

// blockExpr wraps the target expression in a block with extra local
// declarations; some locals are mutable and reassigned, exercising the
// flow-sensitive parts of the analysis (Figure 11c territory).
func (g *Generator) blockExpr(t types.Type, sc *scope, depth int) ir.Expr {
	inner := &scope{typeParams: sc.typeParams, curClass: sc.curClass}
	inner.vars = append(inner.vars, sc.vars...)
	b := &ir.Block{}
	n := 1 + g.rng.Intn(g.cfg.MaxLocals)
	for i := 0; i < n; i++ {
		name := g.freshVarName()
		vt := g.generateType(inner, 2)
		mutable := g.rng.Float64() < 0.2
		b.Stmts = append(b.Stmts, &ir.VarDecl{
			Name:     name,
			DeclType: vt,
			Init:     g.generateExpr(vt, inner, depth-1),
			Mutable:  mutable,
		})
		inner.withVar(name, vt, mutable)
		if mutable && g.rng.Intn(2) == 0 {
			// Reassign with another conforming expression.
			b.Stmts = append(b.Stmts, &ir.Assign{
				Target: &ir.VarRef{Name: name},
				Value:  g.generateExpr(vt, inner, depth-1),
			})
		}
	}
	b.Value = g.generateExpr(t, inner, depth-1)
	return b
}

// boolExpr produces a Boolean expression: a literal, a comparison, an
// equality, or a type test.
func (g *Generator) boolExpr(sc *scope, depth int) ir.Expr {
	if depth <= 0 {
		return &ir.Const{Type: g.b.Boolean}
	}
	switch g.rng.Intn(5) {
	case 0:
		return &ir.Const{Type: g.b.Boolean}
	case 1:
		num := []types.Type{g.b.Int, g.b.Long, g.b.Double}[g.rng.Intn(3)]
		ops := []string{">", ">=", "<", "<="}
		return &ir.BinaryOp{
			Op:    ops[g.rng.Intn(len(ops))],
			Left:  g.generateExpr(num, sc, depth-1),
			Right: g.generateExpr(num, sc, depth-1),
		}
	case 2:
		t := g.generateType(sc, 1)
		op := []string{"==", "!="}[g.rng.Intn(2)]
		return &ir.BinaryOp{
			Op:    op,
			Left:  g.generateExpr(t, sc, depth-1),
			Right: g.generateExpr(t, sc, depth-1),
		}
	case 3:
		op := []string{"&&", "||"}[g.rng.Intn(2)]
		return &ir.BinaryOp{
			Op:    op,
			Left:  g.boolExpr(sc, depth-1),
			Right: g.boolExpr(sc, depth-1),
		}
	default:
		t := g.generateType(sc, 1)
		return &ir.Is{Expr: g.generateExpr(types.Top{}, sc, depth-1), Target: t}
	}
}
