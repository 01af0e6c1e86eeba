package checker

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// typeOfCall resolves and checks a method or function call, performing
// type-argument inference for parameterized callees when the call omits
// explicit type arguments ((e.m t̄)(ē) with t̄ elided).
func (c *checker) typeOfCall(sc *scope, call *ir.Call, expected types.Type) types.Type {
	c.probes.Func("resolve.call")
	var sig MethodSig
	var found bool
	if call.Recv != nil {
		recv := c.typeOf(sc, call.Recv, nil)
		cands := c.env.MethodCandidates(recv, call.Name)
		c.probes.Branch("resolve.call.onReceiver", len(cands) > 0)
		if len(cands) == 0 {
			c.errorf(UnresolvedReference, "no method %s on %s", call.Name, recv)
			c.checkArgsUnconstrained(sc, call.Args)
			return types.Top{}
		}
		sig, found = c.resolveOverload(sc, cands, call)
		if !found {
			c.checkArgsUnconstrained(sc, call.Args)
			return types.Top{}
		}
	} else {
		// Unqualified call: enclosing class methods, then top-level
		// functions, then a lambda-typed variable in scope.
		if c.curClass != nil {
			if cands := c.env.MethodCandidates(SelfType(c.curClass), call.Name); len(cands) > 0 {
				sig, found = c.resolveOverload(sc, cands, call)
				if !found {
					c.checkArgsUnconstrained(sc, call.Args)
					return types.Top{}
				}
			}
		}
		if !found {
			sig, found = c.env.TopLevelSig(call.Name)
		}
		if !found {
			if vt, ok := sc.lookup(call.Name); ok {
				if ft, isFn := vt.(*types.Func); isFn {
					return c.checkLambdaInvocation(sc, call, ft)
				}
			}
		}
		c.probes.Branch("resolve.call.unqualified", found)
		if !found {
			c.errorf(UnresolvedReference, "unresolved function: %s", call.Name)
			c.checkArgsUnconstrained(sc, call.Args)
			return types.Top{}
		}
	}

	if sig.Ret == nil {
		sig.Ret = sig.Sigma.ApplyB(c.gov, c.returnTypeOf(sig.Decl, sig.Owner))
	}
	if len(call.Args) != len(sig.Params) {
		c.errorf(ArityMismatch, "%s expects %d arguments, got %d",
			call.Name, len(sig.Params), len(call.Args))
		c.checkArgsUnconstrained(sc, call.Args)
		return sig.Ret
	}

	if len(sig.TypeParams) == 0 {
		// Monomorphic call: straightforward conformance.
		for i, a := range call.Args {
			got := c.typeOf(sc, a, sig.Params[i])
			c.conforms(got, sig.Params[i], argOf("argument ", i, call.Name))
		}
		return sig.Ret
	}
	return c.checkGenericCall(sc, call, sig, expected)
}

// checkLambdaInvocation checks a call to a variable of function type
// (the Groovy `closure()` idiom of Figure 1).
func (c *checker) checkLambdaInvocation(sc *scope, call *ir.Call, ft *types.Func) types.Type {
	c.probes.Func("resolve.lambdaInvocation")
	if len(call.Args) != len(ft.Params) {
		c.errorf(ArityMismatch, "%s expects %d arguments, got %d", call.Name, len(ft.Params), len(call.Args))
		return ft.Ret
	}
	for i, a := range call.Args {
		got := c.typeOf(sc, a, ft.Params[i])
		c.conforms(got, ft.Params[i], argOf("argument ", i, call.Name))
	}
	return ft.Ret
}

func (c *checker) checkArgsUnconstrained(sc *scope, args []ir.Expr) {
	for _, a := range args {
		c.typeOf(sc, a, nil)
	}
}

// checkGenericCall handles a call to a parameterized method: explicit
// instantiation when type arguments are supplied, or inference from
// argument types and the expected (target) type — the [param call] and
// [var param method call] flows of Figure 5.
func (c *checker) checkGenericCall(sc *scope, call *ir.Call, sig MethodSig, expected types.Type) types.Type {
	c.probes.Func("infer.genericCall")
	sigma := types.NewSubstitution()

	if call.TypeArgs != nil {
		c.probes.Branch("infer.genericCall.explicit", true)
		if len(call.TypeArgs) != len(sig.TypeParams) {
			c.errorf(ArityMismatch, "%s expects %d type arguments, got %d",
				call.Name, len(sig.TypeParams), len(call.TypeArgs))
			return sig.Ret
		}
		for i, tp := range sig.TypeParams {
			sigma.Bind(tp, call.TypeArgs[i])
		}
	} else {
		c.probes.Branch("infer.genericCall.explicit", false)
		// Infer from arguments first ([param call]): evaluate each
		// argument without a target and unify parameter types against
		// argument types. Arguments whose own typing depends on a target
		// (lambdas and nested inferable generic calls) are deferred — the
		// substituted parameter type flows into them afterwards, which is
		// how the KT-48765 bound violation surfaces in the inner call.
		argTypes := make([]types.Type, len(call.Args))
		for i, a := range call.Args {
			if c.argNeedsTarget(sc, a) {
				continue
			}
			argTypes[i] = c.typeOf(sc, a, nil)
		}
		for i, pt := range sig.Params {
			if argTypes[i] == nil || !mentionsAny(pt, sig.TypeParams) {
				continue
			}
			if _, isBottom := argTypes[i].(types.Bottom); isBottom {
				continue // null constrains nothing
			}
			// Constraint collection deliberately ignores bounds here;
			// the explicit bound-conformance pass below reports
			// violations, as the real inference engines do.
			c.probes.Line(probeName(gcFromArgProbes, "infer.genericCall.fromArg.", kindOf(argTypes[i])))
			s := c.unifyProbe("infer.genericCall.unify", pt, argTypes[i])
			if s == nil {
				c.errorf(TypeMismatch, "argument %d of %s: cannot instantiate %s from %s",
					i, call.Name, pt, argTypes[i])
				continue
			}
			c.mergeLowerBounds(sigma, s, sig.TypeParams)
		}
		// Then from the expected type ([var param method call]): when the
		// method's type parameter appears in the return type, the target
		// type instantiates it. Argument bindings are kept when they
		// already satisfy the target (projection positions constrain
		// without dictating); otherwise the target binding wins.
		if expected != nil && mentionsAny(sig.Ret, sig.TypeParams) {
			c.probes.Line(probeName(gcFromTargetProbes, "infer.genericCall.fromTarget.", kindOf(expected)))
			if s := c.unifyProbe("infer.genericCall.targetUnify", sig.Ret, expected); s != nil {
				c.chooseBindings(sigma, s, sig.TypeParams, sig.Ret, expected)
			}
		}
		// Unbound parameters fall back to their (substituted) bound; a
		// parameter with no information is an inference failure.
		for _, tp := range sig.TypeParams {
			if _, ok := sigma.Lookup(tp); ok {
				continue
			}
			c.probes.Branch(probeName(gcUnboundProbes, "infer.genericCall.unbound.", kindOf(tp.UpperBound())), true)
			if tp.Bound != nil && !types.HasFreeParameters(sigma.ApplyB(c.gov, tp.Bound)) {
				sigma.Bind(tp, sigma.ApplyB(c.gov, tp.Bound))
				continue
			}
			c.errorf(InferenceFailure, "cannot infer type argument %s of %s", tp.ParamName, call.Name)
			sigma.Bind(tp, types.Top{})
		}
	}

	// Bound conformance for the instantiation — the check kotlinc forgot
	// in KT-48765: "type parameter bound for T is not satisfied".
	for _, tp := range sig.TypeParams {
		inst, _ := sigma.Lookup(tp)
		if inst == nil {
			continue
		}
		instCheck := inst
		if proj, ok := inst.(*types.Projection); ok {
			instCheck = proj.Bound
		}
		bound := sigma.ApplyB(c.gov, tp.UpperBound())
		c.probes.Func("types.boundCheck")
		ok := types.IsSubtypeB(c.gov, instCheck, bound)
		if c.probesLive {
			c.probes.Branch("types.boundCheck."+kindOf(instCheck)+"-"+kindOf(bound), ok)
		}
		if !ok {
			c.errorf(BoundViolation,
				"type parameter bound for %s of %s is not satisfied: inferred type %s is not a subtype of %s",
				tp.ParamName, call.Name, instCheck, bound)
		}
	}

	// Final conformance of all arguments against substituted parameters
	// (lambdas checked here with their concrete target).
	for i, a := range call.Args {
		want := sigma.ApplyB(c.gov, sig.Params[i])
		got := c.typeOf(sc, a, want)
		c.conforms(got, want, argOf("argument ", i, call.Name))
	}
	return sigma.ApplyB(c.gov, sig.Ret)
}

// argNeedsTarget reports whether typing the argument expression depends on
// a target type: lambdas with untyped parameters always do, and so do
// calls to parameterized functions without explicit type arguments whose
// type parameters appear in their return type.
func (c *checker) argNeedsTarget(sc *scope, a ir.Expr) bool {
	switch t := a.(type) {
	case *ir.Lambda:
		// A lambda with fully annotated parameters types bottom-up and
		// constrains inference; only untyped parameters need a target.
		for _, p := range t.Params {
			if p.Type == nil {
				return true
			}
		}
		return false
	case *ir.New:
		// A diamond constructor call may need its target type.
		if t.TypeArgs != nil {
			return false
		}
		_, isCtor := t.Class.(*types.Constructor)
		return isCtor
	case *ir.Call:
		if t.TypeArgs != nil {
			return false
		}
		var sig MethodSig
		var found bool
		if t.Recv == nil {
			if c.curClass != nil {
				sig, found = c.env.MethodOf(SelfType(c.curClass), t.Name)
			}
			if !found {
				sig, found = c.env.TopLevelSig(t.Name)
			}
		}
		// Receiver calls would need the receiver typed first; treating
		// them as non-deferred keeps argument evaluation single-pass.
		if !found || len(sig.TypeParams) == 0 {
			return false
		}
		return sig.Ret != nil && mentionsAny(sig.Ret, sig.TypeParams)
	}
	return false
}

// typeOfNew resolves and checks a constructor invocation, inferring
// diamond type arguments ((new C t̄)(ē) with t̄ elided) from constructor
// arguments and the target type — the [var param constructor] flow.
func (c *checker) typeOfNew(sc *scope, n *ir.New, expected types.Type) types.Type {
	c.probes.Func("resolve.new")
	switch cls := n.Class.(type) {
	case *types.Simple:
		decl := c.env.Class(cls.TypeName)
		c.probes.Branch("resolve.new.known", decl != nil)
		if decl == nil {
			if !cls.Builtin {
				c.errorf(UnresolvedReference, "unknown class %s", cls.TypeName)
			}
			c.checkArgsUnconstrained(sc, n.Args)
			return cls
		}
		if decl.Kind != ir.RegularClass {
			c.errorf(IllegalDeclaration, "cannot instantiate %s", decl.Name)
		}
		want := c.env.ConstructorParams(decl, nil)
		c.checkCtorArgs(sc, n, decl.Name, want)
		return cls

	case *types.Constructor:
		decl := c.env.Class(cls.TypeName)
		c.probes.Branch("resolve.new.known", decl != nil)
		if decl == nil {
			c.errorf(UnresolvedReference, "unknown class %s", cls.TypeName)
			c.checkArgsUnconstrained(sc, n.Args)
			return types.Top{}
		}
		if decl.Kind != ir.RegularClass {
			c.errorf(IllegalDeclaration, "cannot instantiate %s", decl.Name)
		}
		if n.TypeArgs != nil {
			c.probes.Branch("infer.diamond", false)
			if len(n.TypeArgs) != len(cls.Params) {
				c.errorf(ArityMismatch, "%s expects %d type arguments, got %d",
					cls.TypeName, len(cls.Params), len(n.TypeArgs))
				c.checkArgsUnconstrained(sc, n.Args)
				return types.Top{}
			}
			app := cls.Apply(n.TypeArgs...)
			c.checkTypeWellFormed(app, named("constructor call of ", cls.TypeName))
			_, sigma := c.env.receiverSubstitution(app)
			c.checkCtorArgs(sc, n, cls.TypeName, c.env.ConstructorParams(decl, sigma))
			return app
		}
		// Diamond (type-erasure case 2): infer the instantiation.
		c.probes.Branch("infer.diamond", true)
		return c.inferDiamond(sc, n, decl, cls, expected)
	default:
		c.errorf(IllegalDeclaration, "cannot instantiate %s", n.Class)
		return types.Top{}
	}
}

func (c *checker) checkCtorArgs(sc *scope, n *ir.New, name string, want []types.Type) {
	c.probes.Func("resolve.ctorArgs")
	if len(n.Args) != len(want) {
		c.errorf(ArityMismatch, "constructor of %s expects %d arguments, got %d",
			name, len(want), len(n.Args))
		c.checkArgsUnconstrained(sc, n.Args)
		return
	}
	for i, a := range n.Args {
		got := c.typeOf(sc, a, want[i])
		c.conforms(got, want[i], argOf("constructor argument ", i, name))
	}
}

// inferDiamond infers the type arguments of new C<>(ē) from the
// constructor's argument types, falling back to the target type — exactly
// the information flow the GROOVY-10080 example exercises.
func (c *checker) inferDiamond(sc *scope, n *ir.New, decl *ir.ClassDecl, ctor *types.Constructor, expected types.Type) types.Type {
	c.probes.Func("infer.diamondCall")
	fieldTypes := c.env.ConstructorParams(decl, nil)
	if len(n.Args) != len(fieldTypes) {
		c.errorf(ArityMismatch, "constructor of %s expects %d arguments, got %d",
			decl.Name, len(fieldTypes), len(n.Args))
		c.checkArgsUnconstrained(sc, n.Args)
		return types.Top{}
	}
	sigma := types.NewSubstitution()
	argTypes := make([]types.Type, len(n.Args))
	for i, a := range n.Args {
		if c.argNeedsTarget(sc, a) {
			continue
		}
		argTypes[i] = c.typeOf(sc, a, nil)
		if _, isBottom := argTypes[i].(types.Bottom); isBottom {
			continue
		}
		if !mentionsAny(fieldTypes[i], ctor.Params) {
			continue
		}
		c.probes.Line(probeName(diaFromArgProbes, "infer.diamond.fromArg.", kindOf(argTypes[i])))
		s := c.unifyProbe("infer.diamond.unify", fieldTypes[i], argTypes[i])
		if s == nil {
			c.errorf(TypeMismatch, "constructor argument %d of %s: cannot instantiate %s from %s",
				i, decl.Name, fieldTypes[i], argTypes[i])
			continue
		}
		c.mergeLowerBounds(sigma, s, ctor.Params)
	}
	// Target type: new C<>() assigned to C<String> instantiates T=String.
	// Argument bindings that already satisfy the target are kept
	// (projection positions constrain without dictating).
	if expected != nil {
		self := ctor.Self()
		c.probes.Line(probeName(diaFromTargetProbes, "infer.diamond.fromTarget.", kindOf(expected)))
		if s := c.unifyProbe("infer.diamond.targetUnify", self, expected); s != nil {
			c.chooseBindings(sigma, s, ctor.Params, self, expected)
		}
	}
	for _, tp := range ctor.Params {
		if _, ok := sigma.Lookup(tp); ok {
			continue
		}
		c.probes.Branch(probeName(diaUnboundProbes, "infer.diamond.unbound.", kindOf(tp.UpperBound())), true)
		if tp.Bound != nil && !types.HasFreeParameters(sigma.ApplyB(c.gov, tp.Bound)) {
			sigma.Bind(tp, sigma.ApplyB(c.gov, tp.Bound))
			continue
		}
		c.errorf(InferenceFailure, "cannot infer type argument %s of %s", tp.ParamName, decl.Name)
		sigma.Bind(tp, types.Top{})
	}
	args := make([]types.Type, len(ctor.Params))
	for i, tp := range ctor.Params {
		args[i], _ = sigma.Lookup(tp)
	}
	app := ctor.Apply(args...)
	c.checkTypeWellFormed(app, named("inferred instantiation of ", decl.Name))
	// Conformance of arguments under the inferred instantiation.
	for i, a := range n.Args {
		want := sigma.ApplyB(c.gov, fieldTypes[i])
		got := argTypes[i]
		if got == nil {
			got = c.typeOf(sc, a, want)
		}
		c.conforms(got, want, argOf("constructor argument ", i, decl.Name))
	}
	return app
}

// mentionsAny reports whether t mentions any of the given parameters.
func mentionsAny(t types.Type, params []*types.Parameter) bool {
	if t == nil {
		return false
	}
	for _, p := range params {
		if types.ContainsParameter(t, p) {
			return true
		}
	}
	return false
}

// mergeLowerBounds folds argument-derived bindings into sigma. Arguments
// impose lower bounds: two different bindings for the same parameter are
// combined with the least upper bound, as the real constraint solvers do.
func (c *checker) mergeLowerBounds(sigma, s *types.Substitution, params []*types.Parameter) {
	for _, p := range params {
		t, ok := s.Lookup(p)
		if !ok {
			continue
		}
		if prev, bound := sigma.Lookup(p); bound && !prev.Equal(t) {
			sigma.Bind(p, types.LubB(c.gov, prev, t))
			continue
		}
		sigma.Bind(p, t)
	}
}

// chooseBindings merges target-derived bindings into sigma, arbitrating
// conflicts with argument-derived bindings: an argument binding survives
// when the instantiated shape still conforms to the expected type (the
// target position was a projection or a supertype), otherwise the target
// binding — an equality constraint — wins.
func (c *checker) chooseBindings(sigma, target *types.Substitution, params []*types.Parameter, shape, expected types.Type) {
	// Fill parameters the arguments left unbound.
	for _, p := range params {
		if _, ok := sigma.Lookup(p); !ok {
			if t, ok2 := target.Lookup(p); ok2 {
				sigma.Bind(p, t)
			}
		}
	}
	for _, p := range params {
		tgt, ok := target.Lookup(p)
		if !ok {
			continue
		}
		cur, _ := sigma.Lookup(p)
		if cur == nil || cur.Equal(tgt) {
			continue
		}
		// Rigid scope parameters may legitimately remain in the
		// instantiation (a diamond inside the class mentioning its own
		// parameters), so conformance alone arbitrates.
		inst := sigma.ApplyB(c.gov, shape)
		if types.IsSubtypeB(c.gov, inst, expected) {
			continue // the argument's exact evidence already satisfies the target
		}
		sigma.Bind(p, tgt)
	}
}

// unifyProbe runs unchecked unification while recording a branch probe
// faceted by the kind pair — the analog of the deep branch structure of a
// real inference engine's constraint solver, exercised only when type
// information is omitted (the Figure 9 TEM rows).
func (c *checker) unifyProbe(site string, t1, t2 types.Type) *types.Substitution {
	s := types.UnifyUncheckedB(c.gov, t1, t2)
	if c.probesLive {
		c.probes.Branch(site+"."+kindOf(t1)+"-"+kindOf(t2), s != nil)
	}
	return s
}

// resolveOverload implements overload resolution over a non-empty
// candidate set: filter by arity, then by argument applicability, then
// pick the unique most-specific signature. Generated programs have unique
// method names; decoy overloads come from the resolution mutation (REM),
// which is exactly the compiler path this models. Diagnostics are emitted
// on failure; the boolean reports success.
func (c *checker) resolveOverload(sc *scope, cands []MethodSig, call *ir.Call) (MethodSig, bool) {
	c.probes.Func("resolve.overloads")
	var arityOK []MethodSig
	for _, m := range cands {
		if len(m.Params) == len(call.Args) {
			arityOK = append(arityOK, m)
		}
	}
	c.probes.Branch("resolve.overloads.arity", len(arityOK) > 0)
	if len(arityOK) == 0 {
		c.errorf(UnresolvedReference, "no overload of %s takes %d arguments",
			call.Name, len(call.Args))
		return MethodSig{}, false
	}
	if len(arityOK) == 1 {
		return arityOK[0], true
	}

	// Multiple same-arity overloads: evaluate argument types once and
	// keep the applicable candidates.
	argTypes := make([]types.Type, len(call.Args))
	for i, a := range call.Args {
		if c.argNeedsTarget(sc, a) {
			continue // target-dependent arguments do not discriminate
		}
		argTypes[i] = c.typeOf(sc, a, nil)
	}
	var applicable []MethodSig
	for _, m := range arityOK {
		ok := true
		for i, pt := range m.Params {
			if argTypes[i] == nil || pt == nil || mentionsAny(pt, m.TypeParams) {
				continue
			}
			if !types.IsSubtypeB(c.gov, argTypes[i], pt) {
				ok = false
				break
			}
		}
		if ok {
			applicable = append(applicable, m)
		}
	}
	c.probes.Branch("resolve.overloads.applicable", len(applicable) > 0)
	if len(applicable) == 0 {
		c.errorf(TypeMismatch, "no applicable overload of %s", call.Name)
		return MethodSig{}, false
	}
	if len(applicable) == 1 {
		return applicable[0], true
	}
	// Most-specific selection: m beats n when every parameter of m is a
	// subtype of n's corresponding parameter.
	for _, m := range applicable {
		best := true
		for _, n := range applicable {
			if &m == &n {
				continue
			}
			for i := range m.Params {
				if m.Params[i] == nil || n.Params[i] == nil {
					continue
				}
				if !types.IsSubtypeB(c.gov, m.Params[i], n.Params[i]) {
					best = false
					break
				}
			}
			if !best {
				break
			}
		}
		if best {
			c.probes.Line("resolve.overloads.mostSpecific")
			return m, true
		}
	}
	c.errorf(AmbiguousCall, "ambiguous call to %s: %d applicable overloads",
		call.Name, len(applicable))
	return MethodSig{}, false
}
