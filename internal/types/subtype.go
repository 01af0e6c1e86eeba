package types

import "repro/internal/governor"

// Supertype implements the S(t) operation of the paper: the declared
// supertype of a type. S(T : t) = t; for a type application it is the
// constructor's supertype with the application's arguments substituted for
// the constructor's parameters (so S(B<Int>) = A<Int> for
// class B<T> : A<T>). Supertype of ⊤ is ⊤ itself.
func Supertype(t Type) Type { return SupertypeB(nil, t) }

// SupertypeB is Supertype metered by a governor budget (nil = unmetered).
func SupertypeB(b *governor.Budget, t Type) Type {
	b.Charge(1)
	switch tt := t.(type) {
	case Top:
		return Top{}
	case Bottom:
		return Top{}
	case *Simple:
		if tt.Super == nil {
			return Top{}
		}
		return tt.Super
	case *Parameter:
		return tt.UpperBound()
	case *Constructor:
		if tt.Super == nil {
			return Top{}
		}
		return tt.Super
	case *App:
		if tt.Ctor.Super == nil {
			return Top{}
		}
		if len(tt.Args) != len(tt.Ctor.Params) {
			// Malformed or partially-erased application: the relation
			// cannot be computed, so fail soft instead of indexing out of
			// range.
			return Top{}
		}
		// S((Λα.t)t̄): the constructor's supertype with the arguments
		// substituted for its parameters, bound on the stack.
		var sigma Substitution
		for i, p := range tt.Ctor.Params {
			sigma.Bind(p, tt.Args[i])
		}
		return sigma.ApplyB(b, tt.Ctor.Super)
	case *Func:
		return Top{}
	case *Intersection:
		return Top{}
	case *Projection:
		return tt.Bound
	}
	return Top{}
}

// IsSubtype implements the nominal subtyping relation t1 <: t2 of the IR.
//
// The relation is reflexive; ⊥ <: t and t <: ⊤ for every t; nominal types
// follow their declared supertype chain; type applications of the same
// constructor compare their arguments respecting declaration-site variance
// and use-site projections; applications of different constructors walk the
// substituted supertype chain of the subtype side; function types are
// contravariant in parameters and covariant in the result.
func IsSubtype(t1, t2 Type) bool { return IsSubtypeB(nil, t1, t2) }

// IsSubtypeB is IsSubtype metered by a governor budget (nil = unmetered).
// It charges one step per relation entry plus one per chain-climb link, so
// a guarded walk over a pathological hierarchy exhausts its fuel after the
// same number of steps on every machine. The walk is bracketed by the
// governor's depth guard; re-entries through IsSubtypeB nest, so logical
// recursion depth is what the guard sees.
func IsSubtypeB(b *governor.Budget, t1, t2 Type) bool {
	if t1 == nil || t2 == nil {
		return false
	}
	b.Charge(1)
	if t1.Equal(t2) {
		return true
	}
	if _, ok := t2.(Top); ok {
		return true
	}
	if _, ok := t1.(Bottom); ok {
		return true
	}
	b.Enter()
	ok := isSubtypeWalk(b, t1, t2)
	b.Exit()
	return ok
}

// isSubtypeWalk is the relation's recursive walk, past the reflexive
// and extremal fast paths.
func isSubtypeWalk(b *governor.Budget, t1, t2 Type) bool {
	// An intersection is a subtype of t2 when any member is; t1 is a
	// subtype of an intersection when it is a subtype of every member.
	if x, ok := t1.(*Intersection); ok {
		for _, m := range x.Members {
			if IsSubtypeB(b, m, t2) {
				return true
			}
		}
		return false
	}
	if x, ok := t2.(*Intersection); ok {
		for _, m := range x.Members {
			if !IsSubtypeB(b, t1, m) {
				return false
			}
		}
		return true
	}

	switch a := t1.(type) {
	case Top:
		return false
	case *Simple:
		// Climb the declared chain iteratively, capped like SuperChain so
		// (malformed, test-only) cyclic hierarchies terminate.
		cur := a
		for i := 0; i < 64; i++ {
			b.Charge(1)
			if b2, ok := t2.(*Simple); ok && cur.TypeName == b2.TypeName {
				return true
			}
			if cur.Super == nil {
				return false
			}
			next, ok := cur.Super.(*Simple)
			if !ok {
				return IsSubtypeB(b, cur.Super, t2)
			}
			cur = next
		}
		return false
	case *Parameter:
		// A type parameter is a subtype of whatever its bound is a
		// subtype of. Nothing but itself (and ⊥) is a subtype of it.
		return IsSubtypeB(b, a.UpperBound(), t2)
	case *App:
		// Same capped climb for constructor hierarchies.
		cur := a
		for i := 0; i < 64; i++ {
			if b2, ok := t2.(*App); ok && cur.Ctor.Equal(b2.Ctor) {
				return argsConform(b, cur, b2)
			}
			sup := SupertypeB(b, cur)
			if _, isTop := sup.(Top); isTop {
				return false
			}
			next, ok := sup.(*App)
			if !ok {
				return IsSubtypeB(b, sup, t2)
			}
			cur = next
		}
		return false
	case *Func:
		b2, ok := t2.(*Func)
		if !ok || len(a.Params) != len(b2.Params) {
			return false
		}
		for i := range a.Params {
			if !IsSubtypeB(b, b2.Params[i], a.Params[i]) {
				return false
			}
		}
		return IsSubtypeB(b, a.Ret, b2.Ret)
	case *Constructor:
		// Raw constructors only relate to themselves (handled by Equal).
		return false
	}
	return false
}

// argsConform checks the type arguments of two applications of the same
// constructor, honouring declaration-site variance and use-site
// projections (Java wildcard containment).
func argsConform(bud *governor.Budget, a, b *App) bool {
	// Equal constructors guarantee equal parameter counts, but a malformed
	// or partially-erased application may carry a mismatched argument
	// list; such an application conforms to nothing.
	n := len(a.Ctor.Params)
	if len(a.Args) != n || len(b.Args) != n {
		return false
	}
	for i := range a.Args {
		v := a.Ctor.Params[i].Var
		if !argConforms(bud, a.Args[i], b.Args[i], v) {
			return false
		}
	}
	return true
}

func argConforms(b *governor.Budget, sub, sup Type, v Variance) bool {
	// Use-site projection on the supertype side: containment.
	if ps, ok := sup.(*Projection); ok {
		switch inner := sub.(type) {
		case *Projection:
			// out X <= out Y  iff X <: Y;  in X <= in Y  iff Y <: X.
			if inner.Var != ps.Var {
				return false
			}
			if ps.Var == Covariant {
				return IsSubtypeB(b, inner.Bound, ps.Bound)
			}
			return IsSubtypeB(b, ps.Bound, inner.Bound)
		default:
			if ps.Var == Covariant {
				return IsSubtypeB(b, sub, ps.Bound)
			}
			return IsSubtypeB(b, ps.Bound, sub)
		}
	}
	if ps, ok := sub.(*Projection); ok {
		// A projected argument conforms to a concrete one only through a
		// matching declaration-site variance: Cls<out Number> <= Cls<Number>
		// when Cls's parameter is declared `out`.
		if v == Covariant && ps.Var == Covariant {
			return IsSubtypeB(b, ps.Bound, sup)
		}
		if v == Contravariant && ps.Var == Contravariant {
			return IsSubtypeB(b, sup, ps.Bound)
		}
		return false
	}
	switch v {
	case Covariant:
		return IsSubtypeB(b, sub, sup)
	case Contravariant:
		return IsSubtypeB(b, sup, sub)
	default:
		return sub.Equal(sup)
	}
}

// SuperChain returns the chain of supertypes of t from t itself up to ⊤,
// inclusive on both ends. Cyclic hierarchies are cut after 64 links; the
// capped chain is still terminated with ⊤ so that consumers iterating "up
// to Top" (lub2, the type graph's climb) keep their invariant — and the truncation is
// counted and reported through SetSuperChainTruncationHook so silent caps
// stop reading as "covered everything".
func SuperChain(t Type) []Type { return SuperChainB(nil, t) }

// SuperChainB is SuperChain metered by a governor budget (nil = unmetered).
func SuperChainB(b *governor.Budget, t Type) []Type {
	var chain []Type
	cur := t
	for i := 0; i < 64; i++ { // guard against cyclic hierarchies
		chain = append(chain, cur)
		if _, ok := cur.(Top); ok {
			return chain
		}
		cur = SupertypeB(b, cur)
	}
	noteSuperChainTruncation()
	return append(chain, Top{})
}

// Lub implements the least upper bound operator ⊔ used by type inference
// (Definition 3.3). For types with a common constructor ancestor whose
// arguments disagree, the result covariantly projects the disagreeing
// arguments (mirroring what Kotlin does before approximation); when no
// informative bound exists, the result is ⊤.
func Lub(ts ...Type) Type { return LubB(nil, ts...) }

// LubB is Lub metered by a governor budget (nil = unmetered).
func LubB(b *governor.Budget, ts ...Type) Type {
	if len(ts) == 0 {
		return Top{}
	}
	acc := ts[0]
	for _, t := range ts[1:] {
		acc = lub2(b, acc, t)
	}
	return acc
}

func lub2(bud *governor.Budget, a, b Type) Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	bud.Charge(1)
	if IsSubtypeB(bud, a, b) {
		return b
	}
	if IsSubtypeB(bud, b, a) {
		return a
	}
	// Function types combine pointwise: results join at their least upper
	// bound and parameters meet at their greatest lower bound (parameters
	// are contravariant). The meet is computed only for subtype-related
	// parameter pairs; unrelated parameters have no useful meet in a
	// nominal system, so the join falls back to ⊤.
	if fa, ok := a.(*Func); ok {
		if fb, ok := b.(*Func); ok && len(fa.Params) == len(fb.Params) {
			params := make([]Type, len(fa.Params))
			meetable := true
			for i := range fa.Params {
				switch {
				case fa.Params[i].Equal(fb.Params[i]):
					params[i] = fa.Params[i]
				case IsSubtypeB(bud, fa.Params[i], fb.Params[i]):
					params[i] = fa.Params[i]
				case IsSubtypeB(bud, fb.Params[i], fa.Params[i]):
					params[i] = fb.Params[i]
				default:
					meetable = false
				}
				if !meetable {
					break
				}
			}
			if meetable {
				return &Func{Params: params, Ret: LubB(bud, fa.Ret, fb.Ret)}
			}
			return Top{}
		}
	}
	// Walk a's supertype chain from most specific to ⊤; the first entry
	// that b relates to is the join. A parameterized entry with the same
	// constructor in b's chain joins by merging arguments; a nominal
	// entry that b conforms to is the join directly. Since a <: sa for
	// every chain entry and the chain ends at ⊤, this terminates with the
	// most specific common supertype.
	chainA, chainB := SuperChainB(bud, a), SuperChainB(bud, b)
	for _, sa := range chainA {
		if appA, ok := sa.(*App); ok {
			for _, sb := range chainB {
				if appB, ok := sb.(*App); ok && appA.Ctor.Equal(appB.Ctor) {
					if merged, ok := mergeApps(bud, appA, appB); ok {
						return merged
					}
				}
			}
		}
		if IsSubtypeB(bud, b, sa) {
			return sa
		}
	}
	return Top{}
}

// mergeApps combines two applications of the same constructor into their
// least common instantiation: disagreeing arguments join at their least
// upper bound, directly for declaration-site covariant parameters and
// through a use-site out-projection for invariant ones. Positions
// involving contravariant (in) projections or contravariant parameters
// would need greatest lower bounds; merging there is not an upper bound,
// so the merge reports failure and the caller falls back to a plainer
// common supertype.
func mergeApps(bud *governor.Budget, a, b *App) (Type, bool) {
	n := len(a.Ctor.Params)
	if len(a.Args) != n || len(b.Args) != n {
		return nil, false // malformed/partially-erased application
	}
	args := make([]Type, len(a.Args))
	for i := range a.Args {
		if a.Args[i].Equal(b.Args[i]) {
			args[i] = a.Args[i]
			continue
		}
		if isInProjection(a.Args[i]) || isInProjection(b.Args[i]) ||
			a.Ctor.Params[i].Var == Contravariant {
			return nil, false
		}
		join := LubB(bud, stripProjection(a.Args[i]), stripProjection(b.Args[i]))
		if a.Ctor.Params[i].Var == Covariant {
			args[i] = join
			continue
		}
		args[i] = &Projection{Var: Covariant, Bound: join}
	}
	return a.Ctor.Apply(args...), true
}

func isInProjection(t Type) bool {
	p, ok := t.(*Projection)
	return ok && p.Var == Contravariant
}

func stripProjection(t Type) Type {
	if p, ok := t.(*Projection); ok {
		return p.Bound
	}
	return t
}

// ResetCaches is a no-op kept for callers written against the removed
// relation memo caches; the relations keep no state between calls.
func ResetCaches() {}

// CacheStats is a no-op kept for callers written against the removed
// relation memo caches; it always returns 0, 0.
func CacheStats() (hits, misses uint64) { return 0, 0 }
