package types

import "repro/internal/governor"

// Unify implements type unification (Definition 3.2): it computes a
// substitution σ such that σ·t1 <: t2, or returns nil when no such
// substitution exists.
//
//	unify(α, t)                         = [α ↦ t]
//	unify((Λα.t)t̄1, (Λα.t)t̄2)          = pointwise unification of arguments
//	unify(t1, t2), t1 ∉ TypeParam       = unify via the supertype chain
//
// The paper's third rule climbs S(t2); soundness of the σt1 <: t2 goal
// additionally requires climbing S(t1) (if σ·S(t1) <: t2 then σ·t1 <: t2 by
// transitivity, while the converse direction is a candidate-producing
// heuristic that callers re-check, exactly as Algorithm 1 does with its
// explicit σr <: t test). Unify therefore tries the subtype side's
// supertype chain; callers keep the final conformance check.
//
// Bounds are respected: binding α ↦ t fails when t does not conform to α's
// upper bound. (The paper's KT-48765 is precisely a compiler forgetting
// this check; the reference checker must not.)
func Unify(t1, t2 Type) *Substitution { return UnifyB(nil, t1, t2) }

// UnifyB is Unify metered by a governor budget (nil = unmetered).
func UnifyB(b *governor.Budget, t1, t2 Type) *Substitution {
	return unify(b, t1, t2, true)
}

// unify binds into a stack-held substitution and copies it to the heap
// only on success, so a failed unification allocates nothing for its
// bindings.
func unify(b *governor.Budget, t1, t2 Type, checkBounds bool) *Substitution {
	var sigma Substitution
	if unifyInto(b, t1, t2, &sigma, checkBounds) && groundVerified(b, &sigma, t1, t2) {
		return sigma.Clone()
	}
	return nil
}

// groundVerified rejects heuristic successes that are already refutable:
// when σ·t1 is fully ground, the two sides must be subtype-related in one
// direction or the other. (Unification serves two roles: σ·t1 <: t2 for
// return-type resolution, and t2 <: σ·t1 for argument-driven inference —
// the supertype-chain climbs over-approximate both, and callers of
// partially bound results re-check the conformance they need.)
func groundVerified(b *governor.Budget, sigma *Substitution, t1, t2 Type) bool {
	inst := sigma.ApplyB(b, t1)
	if HasFreeParameters(inst) || HasFreeParameters(t2) {
		return true
	}
	return IsSubtypeB(b, inst, t2) || IsSubtypeB(b, t2, inst)
}

// UnifyUnchecked is Unify without the upper-bound conformance check on
// parameter bindings. Simulated compiler bugs use it to model unsound
// inference engines; the reference checker never does.
func UnifyUnchecked(t1, t2 Type) *Substitution { return UnifyUncheckedB(nil, t1, t2) }

// UnifyUncheckedB is UnifyUnchecked metered by a governor budget.
func UnifyUncheckedB(b *governor.Budget, t1, t2 Type) *Substitution {
	return unify(b, t1, t2, false)
}

func unifyInto(b *governor.Budget, t1, t2 Type, sigma *Substitution, checkBounds bool) bool {
	if t1 == nil || t2 == nil {
		return false
	}
	b.Charge(1)
	b.Enter()
	ok := unifyIntoWalk(b, t1, t2, sigma, checkBounds)
	b.Exit()
	return ok
}

func unifyIntoWalk(b *governor.Budget, t1, t2 Type, sigma *Substitution, checkBounds bool) bool {
	// unify(α, t) = [α ↦ t], provided the bound admits t.
	if p, ok := t1.(*Parameter); ok {
		target := stripProjection(t2)
		if prev, bound := sigma.Lookup(p); bound {
			return prev.Equal(target)
		}
		if checkBounds && !boundAdmits(b, p, target, sigma) {
			return false
		}
		sigma.Bind(p, target)
		return true
	}
	// Apply the accumulated substitution once; the instantiation is reused
	// for the conformance probe, the groundness check, and — unless the
	// supertype climbs below extended sigma — the ground fallback.
	inst := sigma.ApplyB(b, t1)
	bindings0 := sigma.Len()
	if inst.Equal(t2) || IsSubtypeB(b, inst, t2) {
		// Already conformant under the accumulated substitution; make
		// sure remaining free parameters of t1 also get bound when the
		// shapes line up, but structural success is enough here.
		if !HasFreeParameters(inst) {
			return true
		}
	}

	a1, ok1 := t1.(*App)
	a2, ok2 := t2.(*App)
	if ok1 && ok2 && a1.Ctor.Equal(a2.Ctor) {
		// unify((Λα.t)t̄1, (Λα.t)t̄2): pointwise on arguments. A malformed
		// application with mismatched arity unifies with nothing.
		n := len(a1.Ctor.Params)
		if len(a1.Args) != n || len(a2.Args) != n {
			return false
		}
		for i := range a1.Args {
			if !unifyArg(b, a1.Args[i], a2.Args[i], sigma, checkBounds) {
				return false
			}
		}
		return true
	}

	// Climb the subtype side's supertype chain: if σ·S(t1) <: t2 then
	// σ·t1 <: t2.
	if ok1 {
		sup := SupertypeB(b, a1)
		if _, isTop := sup.(Top); !isTop {
			if unifyInto(b, sup, t2, sigma, checkBounds) {
				return true
			}
		}
	}
	// Heuristic direction from the paper: unify(t1, S(t2)). Callers
	// re-check σt1 <: t2 afterwards, so over-approximation is safe.
	if ok2 {
		sup := SupertypeB(b, a2)
		if _, isTop := sup.(Top); !isTop {
			if unifyInto(b, t1, sup, sigma, checkBounds) {
				return true
			}
		}
	}
	// Ground fallback: no parameters left to bind, pure subtype check.
	// The failed climbs above may still have bound parameters (they bind
	// before refuting); re-instantiate only in that case.
	if sigma.Len() != bindings0 {
		inst = sigma.ApplyB(b, t1)
	}
	return IsSubtypeB(b, inst, t2)
}

func unifyArg(b *governor.Budget, a1, a2 Type, sigma *Substitution, checkBounds bool) bool {
	b.Charge(1)
	p1, proj1 := a1.(*Projection)
	p2, proj2 := a2.(*Projection)
	switch {
	case proj1 && proj2:
		return unifyInto(b, p1.Bound, p2.Bound, sigma, checkBounds)
	case proj1:
		// A projected position is a containment constraint, not an
		// equality: bind any parameters inside the bound structurally,
		// otherwise accept when the concrete side is contained
		// (t2 <: bound for `out`, bound <: t2 for `in`).
		if HasFreeParameters(p1.Bound) {
			return unifyInto(b, p1.Bound, a2, sigma, checkBounds)
		}
		if p1.Var == Covariant {
			return IsSubtypeB(b, a2, sigma.ApplyB(b, p1.Bound))
		}
		return IsSubtypeB(b, sigma.ApplyB(b, p1.Bound), a2)
	case proj2:
		return unifyInto(b, a1, p2.Bound, sigma, checkBounds)
	default:
		if p, ok := a1.(*Parameter); ok {
			if prev, bound := sigma.Lookup(p); bound {
				return prev.Equal(a2)
			}
			if checkBounds && !boundAdmits(b, p, a2, sigma) {
				return false
			}
			sigma.Bind(p, a2)
			return true
		}
		if na1, ok := a1.(*App); ok {
			if na2, ok2 := a2.(*App); ok2 && na1.Ctor.Equal(na2.Ctor) {
				n := len(na1.Ctor.Params)
				if len(na1.Args) != n || len(na2.Args) != n {
					return false
				}
				for i := range na1.Args {
					if !unifyArg(b, na1.Args[i], na2.Args[i], sigma, checkBounds) {
						return false
					}
				}
				return true
			}
		}
		// Invariant positions demand equality of ground types.
		return sigma.ApplyB(b, a1).Equal(a2)
	}
}

// boundAdmits reports whether binding p ↦ t respects p's upper bound under
// the substitution accumulated so far (the bound itself may mention other
// parameters, as in fun <T, K : T>).
func boundAdmits(b *governor.Budget, p *Parameter, t Type, sigma *Substitution) bool {
	bound := sigma.ApplyB(b, p.UpperBound())
	if HasFreeParameters(bound) {
		// Bound still mentions unbound parameters; defer judgement.
		return true
	}
	return IsSubtypeB(b, t, bound)
}
