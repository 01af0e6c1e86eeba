package generator

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/types"
)

// resolveMethodCall implements Algorithm 1 (resolveMethod): find or create
// a method whose return type conforms to t, and emit a call to it.
//
// Resolution proceeds in the paper's three steps: (1) functions in the
// current scope and methods of live objects, (2) methods of all previously
// declared classes — unifying the return type with t and instantiating the
// receiver from the resulting substitution, (3) a freshly generated method
// with return type t. The result is nil only when every step fails (e.g.
// t mentions rigid type parameters no fresh function could return).
func (g *Generator) resolveMethodCall(t types.Type, sc *scope, depth int) ir.Expr {
	base := len(g.cands)
	defer g.popCands(base)
	// Step 1a: top-level functions (resolveMatchingFunctions).
	for _, f := range g.funcs {
		if f.Ret == nil || f.Name == "test" {
			continue
		}
		g.cands = append(g.cands, candidate{m: f, recv: -1})
	}
	// Step 1b: methods of live objects in scope (resolveMatchingObjects).
	if sc != nil {
		for i, v := range sc.vars {
			cls := g.classByName(typeName(v.typ))
			if cls == nil {
				continue
			}
			for _, m := range cls.Methods {
				if m.Ret != nil {
					g.cands = append(g.cands, candidate{m: m, recv: i})
				}
			}
		}
	}

	n := len(g.cands) - base
	pbase := g.pushPerm(n)
	defer g.popPerm(pbase)
	for k := range n {
		c := g.cands[base+g.perm[pbase+k]]
		var recv ir.Expr
		var sigma types.Substitution
		if c.recv >= 0 {
			v := sc.vars[c.recv]
			recv = &ir.VarRef{Name: v.name}
			sigma = types.CaptureSubst(v.typ)
		}
		if e := g.tryCall(recv, c.m, &sigma, t, sc, depth); e != nil {
			return e
		}
	}

	// Step 2: methods of previously declared classes
	// (resolveMatchingClass), with receivers instantiated via unification.
	if e := g.resolveMatchingClass(t, sc, depth); e != nil {
		return e
	}

	// Step 3: generate a fresh method with return type t
	// (generateMatchingMethod). Only ground types can be returned by a new
	// top-level function.
	if !types.HasFreeParameters(t) && depth >= 1 {
		return g.generateMatchingMethod(t)
	}
	return nil
}

// candidate is a callee a method-resolution step may try: the function or
// method m, called on the scope variable sc.vars[recv] (recv -1: no
// receiver), or on a fresh receiver of class cls (resolveMatchingClass).
type candidate struct {
	m    *ir.FuncDecl
	cls  *ir.ClassDecl
	recv int
}

func (g *Generator) popCands(base int) { g.cands = g.cands[:base] }

// tryCall attempts to build a call to a known callee f so that its
// (substituted) return type conforms to t: unify the return type with t,
// complete the substitution with random conforming types, validate bounds,
// and generate arguments for the substituted parameter types. sigma holds
// the receiver's instantiation, and tryCall binds f's type parameters in
// it.
func (g *Generator) tryCall(recv ir.Expr, f *ir.FuncDecl, sigma *types.Substitution,
	t types.Type, sc *scope, depth int) ir.Expr {

	if len(f.TypeParams) == 0 {
		if !types.IsSubtype(sigma.Apply(f.Ret), t) {
			return nil
		}
		return g.finishCall(&ir.Call{Recv: recv, Name: f.Name}, f.Params, sigma, sc, depth)
	}

	if s := types.Unify(sigma.Apply(f.Ret), t); s != nil {
		for _, p := range s.Domain() {
			if owned(p, f.TypeParams) {
				bound, _ := s.Lookup(p)
				sigma.Bind(p, stripProjections(bound))
			}
		}
	}
	if !g.completeSubstitution(sigma, f.TypeParams, sc, 1) {
		return nil
	}
	if !types.IsSubtype(sigma.Apply(f.Ret), t) {
		return nil
	}
	call := &ir.Call{Recv: recv, Name: f.Name}
	for _, tp := range f.TypeParams {
		arg, _ := sigma.Lookup(tp)
		call.TypeArgs = append(call.TypeArgs, arg)
	}
	return g.finishCall(call, f.Params, sigma, sc, depth)
}

// finishCall generates the call's arguments for the substituted parameter
// types.
func (g *Generator) finishCall(call *ir.Call, params []*ir.ParamDecl, sigma *types.Substitution, sc *scope, depth int) ir.Expr {
	for _, p := range params {
		call.Args = append(call.Args, g.generateExpr(sigma.Apply(p.Type), sc, depth-1))
	}
	return call
}

func owned(p *types.Parameter, tps []*types.Parameter) bool {
	for _, tp := range tps {
		if tp.SameAs(p) {
			return true
		}
	}
	return false
}

// stripProjections removes use-site projections recursively: unification
// against a projected target can bind a parameter to `out N` (or to an
// application containing one), which is not a first-class type the
// generator can produce expressions of. The callers' final conformance
// checks reject any instantiation the stripping made incompatible.
func stripProjections(t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Projection:
		return stripProjections(tt.Bound)
	case *types.App:
		args := make([]types.Type, len(tt.Args))
		changed := false
		for i, a := range tt.Args {
			args[i] = stripProjections(a)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return tt
		}
		return &types.App{Ctor: tt.Ctor, Args: args}
	default:
		return t
	}
}

// resolveMatchingClass is Algorithm 1's second step: scan every class and
// method, unify the method's return type with t, instantiate the receiver
// type from the (partial) substitution, and generate a receiver expression
// of that type.
func (g *Generator) resolveMatchingClass(t types.Type, sc *scope, depth int) ir.Expr {
	base := len(g.cands)
	defer g.popCands(base)
	for _, cls := range g.classes {
		if cls.Kind != ir.RegularClass {
			continue
		}
		for _, m := range cls.Methods {
			if m.Ret != nil {
				g.cands = append(g.cands, candidate{m: m, cls: cls, recv: -1})
			}
		}
	}
	n := len(g.cands) - base
	pbase := g.pushPerm(n)
	defer g.popPerm(pbase)
	for k := range n {
		c := g.cands[base+g.perm[pbase+k]]
		cls, m := c.cls, c.m
		var sigma types.Substitution
		// Unify the declared return type (mentioning class and method
		// parameters) with the target.
		if s := types.Unify(m.Ret, t); s != nil {
			for _, p := range s.Domain() {
				bound, _ := s.Lookup(p)
				sigma.Bind(p, stripProjections(bound))
			}
		}
		if !g.completeSubstitution(&sigma, cls.TypeParams, sc, 1) {
			continue
		}
		if !g.completeSubstitution(&sigma, m.TypeParams, sc, 1) {
			continue
		}
		if !types.IsSubtype(sigma.Apply(m.Ret), t) {
			continue
		}
		// Instantiate the receiver type from the substitution and
		// generate an expression of that type (Algorithm 1, line 25).
		recv := g.generateExpr(g.receiverType(cls, &sigma), sc, depth-1)
		call := &ir.Call{Recv: recv, Name: m.Name}
		for _, tp := range m.TypeParams {
			arg, _ := sigma.Lookup(tp)
			call.TypeArgs = append(call.TypeArgs, arg)
		}
		return g.finishCall(call, m.Params, &sigma, sc, depth)
	}
	return nil
}

// receiverType instantiates cls from the parameters sigma binds.
func (g *Generator) receiverType(cls *ir.ClassDecl, sigma *types.Substitution) types.Type {
	switch ct := g.classType(cls).(type) {
	case *types.Constructor:
		args := make([]types.Type, len(ct.Params))
		for j, p := range ct.Params {
			args[j], _ = sigma.Lookup(p)
		}
		return ct.Apply(args...)
	default:
		return ct
	}
}

// generateMatchingMethod creates a fresh top-level function returning t
// and emits a call to it (Algorithm 1, line 7).
func (g *Generator) generateMatchingMethod(t types.Type) ir.Expr {
	name := g.freshFuncName()
	f := &ir.FuncDecl{Name: name, Ret: t, Body: &ir.Const{Type: t}}
	g.prog.Decls = append(g.prog.Decls, f)
	g.funcs = append(g.funcs, f)
	return &ir.Call{Name: name}
}

// resolveFieldAccess finds a field whose (substituted) type conforms to t,
// on a live object or through a freshly instantiated receiver, mirroring
// the method-resolution process for field accesses (Section 3.2).
func (g *Generator) resolveFieldAccess(t types.Type, sc *scope, depth int) ir.Expr {
	// Live objects first.
	if sc != nil {
		type hit struct {
			varName string
			field   string
		}
		var buf [8]hit
		hits := buf[:0]
		for _, v := range sc.vars {
			cls := g.classByName(typeName(v.typ))
			if cls == nil {
				continue
			}
			sigma := types.CaptureSubst(v.typ)
			for _, f := range cls.Fields {
				if types.IsSubtype(sigma.Apply(f.Type), t) {
					hits = append(hits, hit{v.name, f.Name})
				}
			}
		}
		if len(hits) > 0 {
			h := hits[g.rng.Intn(len(hits))]
			return &ir.FieldAccess{Recv: &ir.VarRef{Name: h.varName}, Field: h.field}
		}
	}
	// Otherwise instantiate a receiver whose field unifies with t.
	base := g.pushPerm(len(g.classes))
	defer g.popPerm(base)
	for k := range len(g.classes) {
		cls := g.classes[g.perm[base+k]]
		if cls.Kind != ir.RegularClass {
			continue
		}
		for _, f := range cls.Fields {
			var sigma types.Substitution
			if s := types.Unify(f.Type, t); s != nil {
				for _, p := range s.Domain() {
					bound, _ := s.Lookup(p)
					sigma.Bind(p, stripProjections(bound))
				}
			}
			if !g.completeSubstitution(&sigma, cls.TypeParams, sc, 1) {
				continue
			}
			if !types.IsSubtype(sigma.Apply(f.Type), t) {
				continue
			}
			recv := g.generateExpr(g.receiverType(cls, &sigma), sc, depth-1)
			return &ir.FieldAccess{Recv: recv, Field: f.Name}
		}
	}
	return nil
}

// describe renders a one-line summary of the generator state, useful in
// failure messages.
func (g *Generator) describe() string {
	return fmt.Sprintf("generator(seed=%d, classes=%d, funcs=%d)",
		g.cfg.Seed, len(g.classes), len(g.funcs))
}
