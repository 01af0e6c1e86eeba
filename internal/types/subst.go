package types

import (
	"strings"

	"repro/internal/governor"
)

// Substitution is a finite map [α ↦ t] from type parameters to types
// (Definition 3.1), keyed by parameter identity (Parameter.SameAs, i.e.
// equal IDs). A substitution holds the few parameters of one constructor
// or method, so it is a slice scanned linearly, with inline room for the
// common case: building, binding and looking up allocate nothing beyond
// the substitution itself.
type Substitution struct {
	binds  []binding
	inline [4]binding
}

type binding struct {
	p *Parameter
	t Type
}

// NewSubstitution returns an empty substitution.
func NewSubstitution() *Substitution {
	s := &Substitution{}
	s.binds = s.inline[:0]
	return s
}

// index returns the position of p's binding, or -1.
func (s *Substitution) index(p *Parameter) int {
	for i := range s.binds {
		if s.binds[i].p.SameAs(p) {
			return i
		}
	}
	return -1
}

// Bind records [p ↦ t]. Rebinding the same parameter overwrites: the last
// bind wins (callers that need conflict detection use Merge).
func (s *Substitution) Bind(p *Parameter, t Type) {
	if i := s.index(p); i >= 0 {
		s.binds[i] = binding{p, t}
		return
	}
	s.binds = append(s.binds, binding{p, t})
}

// Lookup returns the binding for p, if any.
func (s *Substitution) Lookup(p *Parameter) (Type, bool) {
	if i := s.index(p); i >= 0 {
		return s.binds[i].t, true
	}
	return nil, false
}

// Len returns the number of bound parameters.
func (s *Substitution) Len() int { return len(s.binds) }

// IsEmpty reports whether no parameter is bound.
func (s *Substitution) IsEmpty() bool { return len(s.binds) == 0 }

// Domain returns the bound parameters in deterministic (ID-sorted) order.
func (s *Substitution) Domain() []*Parameter {
	out := make([]*Parameter, len(s.binds))
	for i, bd := range s.binds {
		out[i] = bd.p
	}
	// Insertion sort: domains are a handful of parameters, and IDs are
	// unique within a substitution.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && compareIDs(out[j], out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Clone returns an independent copy of the substitution.
func (s *Substitution) Clone() *Substitution {
	c := NewSubstitution()
	c.binds = append(c.binds, s.binds...)
	return c
}

// Merge combines s with other, returning false on a conflicting binding
// (the same parameter bound to unequal types).
func (s *Substitution) Merge(other *Substitution) bool {
	if other == nil {
		return true
	}
	for _, bd := range other.binds {
		if prev, ok := s.Lookup(bd.p); ok && !prev.Equal(bd.t) {
			return false
		}
		s.Bind(bd.p, bd.t)
	}
	return true
}

// Apply performs the substitution on t, replacing every occurrence of a
// bound type parameter (Definition 3.1). Unbound parameters are left
// intact. Application recurses through applications, projections, function
// types, intersections, and parameter bounds.
func (s *Substitution) Apply(t Type) Type { return s.ApplyB(nil, t) }

// ApplyB is Apply metered by a governor budget (nil = unmetered), charging
// one step per visited type node. Substitution is where pathological
// programs manufacture exponential work — a climb through
// `class E<T> : D<Pair<T,T>>` doubles the type's size per level — so
// metering per node (rather than per call) is what makes fuel exhaustion
// track the real cost.
func (s *Substitution) ApplyB(b *governor.Budget, t Type) Type {
	if t == nil || s == nil || len(s.binds) == 0 {
		return t
	}
	b.Charge(1)
	b.Enter()
	out := s.applyWalk(b, t)
	b.Exit()
	return out
}

func (s *Substitution) applyWalk(b *governor.Budget, t Type) Type {
	switch tt := t.(type) {
	case *Parameter:
		if i := s.index(tt); i >= 0 {
			return s.binds[i].t
		}
		return tt
	case *App:
		// Copy the application only once an argument changes.
		var out *App
		for i, a := range tt.Args {
			na := s.ApplyB(b, a)
			if out == nil {
				if na == a {
					continue
				}
				out = newApp(tt.Ctor, tt.Args)
			}
			out.Args[i] = na
		}
		if out == nil {
			return tt
		}
		return out
	case *Projection:
		nb := s.ApplyB(b, tt.Bound)
		if nb == tt.Bound {
			return tt
		}
		return &Projection{Var: tt.Var, Bound: nb}
	case *Func:
		params := make([]Type, len(tt.Params))
		for i, p := range tt.Params {
			params[i] = s.ApplyB(b, p)
		}
		return &Func{Params: params, Ret: s.ApplyB(b, tt.Ret)}
	case *Intersection:
		ms := make([]Type, len(tt.Members))
		for i, m := range tt.Members {
			ms[i] = s.ApplyB(b, m)
		}
		return &Intersection{Members: ms}
	case *Constructor:
		// Substituting under a binder: Definition 3.1 substitutes only
		// free parameters, so skip the constructor's own parameters.
		if tt.Super == nil {
			return tt
		}
		inner := s.without(tt.Params)
		if len(inner.binds) == 0 {
			return tt
		}
		return &Constructor{
			TypeName: tt.TypeName,
			Params:   tt.Params,
			Super:    inner.ApplyB(b, tt.Super),
			Final:    tt.Final,
		}
	default:
		return t
	}
}

// newApp returns an application of c to a copy of args. Arities one and
// two allocate the application and its argument array as one object.
func newApp(c *Constructor, args []Type) *App {
	switch len(args) {
	case 1:
		x := &struct {
			App
			args [1]Type
		}{App{Ctor: c}, [1]Type(args)}
		x.Args = x.args[:]
		return &x.App
	case 2:
		x := &struct {
			App
			args [2]Type
		}{App{Ctor: c}, [2]Type(args)}
		x.Args = x.args[:]
		return &x.App
	}
	return &App{Ctor: c, Args: append([]Type(nil), args...)}
}

// without returns s minus the bindings of the given parameters: s itself
// when none of them is bound, otherwise a filtered copy.
func (s *Substitution) without(params []*Parameter) *Substitution {
	shadows := func(p *Parameter) bool {
		for _, q := range params {
			if q.SameAs(p) {
				return true
			}
		}
		return false
	}
	i := 0
	for i < len(s.binds) && !shadows(s.binds[i].p) {
		i++
	}
	if i == len(s.binds) {
		return s
	}
	out := NewSubstitution()
	out.binds = append(out.binds, s.binds[:i]...)
	for _, bd := range s.binds[i+1:] {
		if !shadows(bd.p) {
			out.binds = append(out.binds, bd)
		}
	}
	return out
}

func (s *Substitution) String() string {
	parts := make([]string, 0, len(s.binds))
	for _, p := range s.Domain() {
		t, _ := s.Lookup(p)
		parts = append(parts, p.ID()+" ↦ "+t.String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
