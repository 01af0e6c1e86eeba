package typegraph

import (
	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/types"
)

// walkExpr applies the analysis rules of Figure 5 to an expression,
// returning the occurrence reference carrying its type information.
func (b *builder) walkExpr(e ir.Expr) occRef {
	switch t := e.(type) {
	case *ir.Const:
		return occRef{node: b.g.AddTypeNode(t.Type)}

	case *ir.VarRef:
		if ref, ok := b.varOcc[t.Name]; ok {
			return ref
		}
		return occRef{node: b.g.AddTypeNode(b.staticType(t))}

	case *ir.FieldAccess:
		return b.walkFieldAccess(t)

	case *ir.BinaryOp:
		b.walkExpr(t.Left)
		b.walkExpr(t.Right)
		return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Boolean)}

	case *ir.Block:
		for _, s := range t.Stmts {
			switch st := s.(type) {
			case *ir.VarDecl:
				b.walkVarDecl(st)
			case *ir.Assign:
				b.walkAssign(st)
			case ir.Expr:
				b.walkExpr(st)
			}
		}
		if t.Value == nil {
			return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Unit)}
		}
		return b.walkExpr(t.Value)

	case *ir.Call:
		return b.walkCall(t)

	case *ir.New:
		return b.walkNew(t)

	case *ir.Assign:
		b.walkAssign(t)
		return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Unit)}

	case *ir.If:
		b.walkExpr(t.Cond)
		thenRef := b.walkExpr(t.Then)
		elseRef := b.walkExpr(t.Else)
		join := b.g.add(Node{IsDecl: true, label: "if", occ: b.nextOcc()})
		b.g.AddEdge(join, thenRef.node, InfEdge)
		b.g.AddEdge(join, elseRef.node, InfEdge)
		return occRef{node: join}

	case *ir.MethodRef:
		b.walkExpr(t.Recv)
		return occRef{node: b.g.AddTypeNode(b.staticType(t))}

	case *ir.Lambda:
		inner := map[string]occRef{}
		for name, ref := range b.varOcc {
			inner[name] = ref
		}
		saved := b.varOcc
		b.varOcc = inner
		ft, _ := b.staticType(t).(*types.Func)
		for i, p := range t.Params {
			pt := p.Type
			if pt == nil && ft != nil && i < len(ft.Params) {
				pt = ft.Params[i]
			}
			if pt != nil {
				ref := b.registerType(pt, DeclEdge, nil)
				node := b.g.add(Node{IsDecl: true, label: "lparam:" + p.Name, occ: b.nextOcc()})
				b.g.AddEdge(node, ref.node, DeclEdge)
				ref.node = node
				b.varOcc[p.Name] = ref
			}
		}
		b.walkExpr(t.Body)
		b.varOcc = saved
		return occRef{node: b.g.AddTypeNode(b.staticType(t))}

	case *ir.Cast:
		b.walkExpr(t.Expr)
		return b.registerType(t.Target, InfEdge, nil)

	case *ir.Is:
		b.walkExpr(t.Expr)
		return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Boolean)}
	}
	return occRef{node: b.g.AddTypeNode(types.Top{})}
}

// walkVarDecl implements the [var decl], [var param constructor], and
// [var param method call] rules: decl and inf edges for the variable,
// plus unify′ dependency links between the declared type's and the
// initializer's parameter occurrences.
func (b *builder) walkVarDecl(v *ir.VarDecl) {
	if v.Init == nil {
		return
	}
	rhs := b.walkExpr(v.Init)
	node := b.g.AddDeclNode("var:" + v.Name)
	b.g.AddEdge(node, rhs.node, InfEdge)

	stored := rhs
	stored.node = node
	stored.receptive = false // uses of the variable are not target-receptive
	if v.DeclType != nil {
		declRef := b.registerType(v.DeclType, DeclEdge, nil)
		b.g.AddEdge(node, declRef.node, DeclEdge)
		b.linkTarget(declRef, rhs)
		params := declRef.paramNodes()
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         VarDeclType,
			NodeID:       node,
			ParamNodeIDs: params,
			EraseSet:     append([]NodeID{node}, params...),
			VanishNodes:  params,
			Var:          v,
		})
		// The variable's positional structure is its declared type's.
		stored = declRef
		stored.node = node
		stored.receptive = false
	}
	b.varOcc[v.Name] = stored
}

func (b *builder) walkAssign(a *ir.Assign) {
	rhs := b.walkExpr(a.Value)
	if vr, ok := a.Target.(*ir.VarRef); ok {
		if ref, exists := b.varOcc[vr.Name]; exists {
			// Flow-sensitivity: the assigned value feeds the variable's
			// inferred type (Groovy's flow typing, Figure 11c), and the
			// variable's fixed type is the assigned value's target.
			b.g.AddEdge(ref.node, rhs.node, InfEdge)
			b.linkTarget(ref, rhs)
			return
		}
	}
	if fa, ok := a.Target.(*ir.FieldAccess); ok {
		target := b.walkFieldAccess(fa)
		b.g.AddEdge(target.node, rhs.node, InfEdge)
		b.linkTarget(target, rhs)
	}
}

// walkFieldAccess resolves e.f and exposes the field's type structure in
// terms of the receiver occurrence's parameter nodes, so that type
// information flows through field reads (the closure().f chain of
// Figure 1).
func (b *builder) walkFieldAccess(fa *ir.FieldAccess) occRef {
	recv := b.walkExpr(fa.Recv)
	static := b.staticType(fa)

	recvType := b.staticType(fa.Recv)
	if app, ok := recvType.(*types.App); ok && recv.app != nil && app.Ctor.Equal(recv.app.Ctor) {
		if cls := b.a.Env.Class(app.Ctor.TypeName); cls != nil {
			if fd := cls.FieldByName(fa.Field); fd != nil {
				ref := b.registerType(fd.Type, InfEdge, recv.params)
				if ref.app == nil {
					if app2, isApp := static.(*types.App); isApp {
						ref.app = app2
					}
				}
				return ref
			}
		}
	}
	// Inherited or structurally opaque field: fall back to the static type.
	return occRef{node: b.g.AddTypeNode(static)}
}

// walkNew implements the constructor-invocation rules: the [type
// application] treatment of its (possibly explicit) instantiation, field
// declaration nodes with decl/inf edges, and [param call]-style dependency
// links between the instantiation's parameters and the arguments' types.
func (b *builder) walkNew(n *ir.New) occRef {
	static := b.staticType(n)
	app, isApp := static.(*types.App)
	if !isApp {
		// Unparameterized class: just walk arguments.
		for _, a := range n.Args {
			b.walkExpr(a)
		}
		return occRef{node: b.g.AddTypeNode(static)}
	}
	cls := b.a.Env.Class(app.Ctor.TypeName)
	explicit := n.TypeArgs != nil
	kind := InfEdge
	if explicit {
		kind = DeclEdge
	}
	ref := b.registerType(app, kind, nil)
	ref.receptive = true // diamonds are inferred from their target type
	if explicit && cls != nil {
		params := ref.paramNodes()
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         NewTypeArgs,
			NodeID:       ref.node,
			ParamNodeIDs: params,
			EraseSet:     params,
			NewExpr:      n,
		})
	}
	if cls == nil {
		for _, a := range n.Args {
			b.walkExpr(a)
		}
		return ref
	}
	// Constructor arguments flow into field positions ([param call] via
	// the paper's "constructor with call arguments is modeled as calling
	// a parameterized method").
	for i, arg := range n.Args {
		if i >= len(cls.Fields) {
			b.walkExpr(arg)
			continue
		}
		fd := cls.Fields[i]
		argRef := b.walkExpr(arg)
		b.linkParamFlowOccs(fd.Type, ref.params, argRef)

		// Field declaration node (B<String>.f in Figure 6): declared type
		// in terms of the instantiation, inferred from the argument.
		fieldNode := b.g.add(Node{IsDecl: true, owner: cls.Name, label: fd.Name, occ: b.nextOcc()})
		declRef := b.registerType(fd.Type, InfEdge, ref.params)
		b.g.AddEdge(fieldNode, declRef.node, DeclEdge)
		b.g.AddEdge(fieldNode, argRef.node, InfEdge)
	}
	return ref
}

// linkParamFlowOccs links an argument's occurrence into a callee's
// parameter occurrences ([param call]): paramType is the declared
// parameter (or field) type, whose type-parameter mentions resolve through
// occs. The callee's parameters are always inferable from the argument's
// type; the reverse — the argument inferred from the (substituted)
// parameter type — only holds for target-receptive arguments.
func (b *builder) linkParamFlowOccs(paramType types.Type, occs paramOccs, argRef occRef) {
	switch pt := paramType.(type) {
	case *types.Parameter:
		if occNode := occs.find(pt); occNode != nil {
			// The whole argument instantiates this parameter.
			b.g.AddEdge(*occNode, argRef.node, InfEdge)
		}
	case *types.App:
		if argRef.app == nil {
			return
		}
		// Align the parameter type's positions with the argument's
		// occurrence positions, climbing the hierarchy when needed.
		synthetic := occRef{app: pt}
		for i, a := range pt.Args {
			if proj, ok := a.(*types.Projection); ok {
				a = proj.Bound
			}
			if p, ok := a.(*types.Parameter); ok {
				if occNode := occs.find(p); occNode != nil {
					synthetic.params = append(synthetic.params, paramOcc{pt.Ctor.Params[i], *occNode})
				}
			}
		}
		b.linkAligned(pt, synthetic, argRef, occs)
	}
}

// linkAligned walks pt's argument positions against argRef's occurrence,
// adding inf edges between dependent parameter occurrences.
func (b *builder) linkAligned(pt *types.App, synthetic occRef, argRef occRef, occs paramOccs) {
	xPos, yPos := b.correspond(synthetic, argRef)
	if xPos == nil {
		return
	}
	for i := range xPos {
		if i >= len(pt.Args) {
			break
		}
		a := pt.Args[i]
		if proj, ok := a.(*types.Projection); ok {
			a = proj.Bound
		}
		switch at := a.(type) {
		case *types.Parameter:
			if occNode := occs.find(at); occNode != nil && yPos[i].param != nil {
				// Callee parameter inferred from the argument: always.
				b.g.AddEdge(*occNode, *yPos[i].param, InfEdge)
				// Argument inferred from the callee parameter (the
				// compiler passing a target into the argument): only for
				// receptive arguments.
				if argRef.receptive {
					b.g.AddEdge(*yPos[i].param, *occNode, InfEdge)
				}
			}
		case *types.App:
			if yPos[i].nested != nil {
				inner := *yPos[i].nested
				inner.receptive = argRef.receptive
				b.linkParamFlowOccs(at, occs, inner)
			}
		}
	}
}

// walkCall implements the [param call] and [var param method call] rules
// for method and function calls, including explicit type-argument
// occurrences (erasure candidates) and return-type linking.
func (b *builder) walkCall(call *ir.Call) occRef {
	var sig checker.MethodSig
	var found bool
	if call.Recv != nil {
		b.walkExpr(call.Recv)
		recvType := b.staticType(call.Recv)
		sig, found = b.a.Env.MethodOf(recvType, call.Name)
	} else {
		sig, found = b.a.Env.TopLevelSig(call.Name)
	}
	static := b.staticType(call)
	if !found {
		for _, a := range call.Args {
			b.walkExpr(a)
		}
		// The call's result may still carry structure (e.g. invoking a
		// lambda variable whose inferred type is B<A<Long>>): give it an
		// occurrence so downstream field accesses can link.
		if app, ok := static.(*types.App); ok {
			return b.registerType(app, InfEdge, nil)
		}
		return occRef{node: b.g.AddTypeNode(static)}
	}

	// Type-argument occurrences for the method's own parameters.
	occs := make(paramOccs, len(sig.TypeParams))
	var paramNodeIDs []NodeID
	occ := b.nextOcc()
	for i, tp := range sig.TypeParams {
		pid := b.g.add(Node{Param: tp, owner: call.Name, occ: occ})
		occs[i] = paramOcc{tp, pid}
		paramNodeIDs = append(paramNodeIDs, pid)
	}
	if call.TypeArgs != nil && len(call.TypeArgs) == len(sig.TypeParams) {
		var eraseSet []NodeID
		for i, ta := range call.TypeArgs {
			ref := b.registerType(ta, DeclEdge, nil)
			b.g.AddEdge(occs[i].node, ref.node, DeclEdge)
			eraseSet = ref.appendParamNodes(eraseSet)
		}
		eraseSet = append(eraseSet, paramNodeIDs...)
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         CallTypeArgs,
			NodeID:       paramNodeIDs[0],
			ParamNodeIDs: paramNodeIDs,
			EraseSet:     eraseSet,
			CallExpr:     call,
		})
	}
	// Arguments flow into parameter positions ([param call]).
	for i, arg := range call.Args {
		argRef := b.walkExpr(arg)
		if i < len(sig.Params) && sig.Params[i] != nil {
			b.linkParamFlowOccs(sig.Params[i], occs, argRef)
		}
	}
	// The return type, with method type-parameter mentions wired to this
	// call's occurrences ([var param method call] when a target exists).
	retDecl := sig.Ret
	if retDecl == nil && sig.Decl != nil {
		retDecl = static
	}
	ref := b.registerType(retDecl, InfEdge, occs)
	if ref.app == nil {
		if app, ok := static.(*types.App); ok {
			ref.app = app
		}
	}
	// Parameterized calls accept a target type ([var param method call]).
	ref.receptive = len(sig.TypeParams) > 0
	return ref
}
