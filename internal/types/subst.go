package types

import (
	"strings"

	"repro/internal/governor"
)

// Substitution is a finite map [α ↦ t] from type parameters to types
// (Definition 3.1), keyed by parameter identity (Parameter.SameAs, i.e.
// equal IDs). A substitution holds the few parameters of one constructor
// or method, so its bindings sit in an inline array scanned linearly and
// spill to the heap only past four. Its zero value is the empty
// substitution, and no method retains its receiver, so a substitution
// declared as a local variable stays on the stack: SupertypeB, the
// checker's bound check and unification (until it succeeds) bind
// constructor parameters without allocating.
type Substitution struct {
	n      int
	inline [4]binding
	spill  bindings // all bindings, once more than len(inline)
}

type binding struct {
	p *Parameter
	t Type
}

// bindings is the substitution walk's representation: a plain binding
// slice, which the walk reads and never retains.
type bindings []binding

// NewSubstitution returns an empty substitution.
func NewSubstitution() *Substitution { return &Substitution{} }

// view returns the bindings in insertion order.
func (s *Substitution) view() bindings {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// index returns the position of p's binding, or -1.
func (bs bindings) index(p *Parameter) int {
	for i := range bs {
		if bs[i].p.SameAs(p) {
			return i
		}
	}
	return -1
}

// Bind records [p ↦ t]. Rebinding the same parameter overwrites: the last
// bind wins (callers that need conflict detection use Merge).
func (s *Substitution) Bind(p *Parameter, t Type) {
	bs := s.view()
	switch i := bs.index(p); {
	case i >= 0:
		bs[i] = binding{p, t}
	case s.spill != nil:
		s.spill = append(s.spill, binding{p, t})
	case s.n < len(s.inline):
		s.inline[s.n] = binding{p, t}
		s.n++
	default:
		s.spill = append(append(make(bindings, 0, 2*len(s.inline)), bs...), binding{p, t})
	}
}

// Lookup returns the binding for p, if any.
func (s *Substitution) Lookup(p *Parameter) (Type, bool) {
	bs := s.view()
	if i := bs.index(p); i >= 0 {
		return bs[i].t, true
	}
	return nil, false
}

// Len returns the number of bound parameters.
func (s *Substitution) Len() int { return len(s.view()) }

// IsEmpty reports whether no parameter is bound.
func (s *Substitution) IsEmpty() bool { return s.Len() == 0 }

// Domain returns the bound parameters in deterministic (ID-sorted) order.
func (s *Substitution) Domain() []*Parameter {
	bs := s.view()
	out := make([]*Parameter, len(bs))
	for i, bd := range bs {
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

// CaptureSubst maps the parameters of t's constructor to t's arguments,
// approximating each use-site projection by its bound (the capture
// conversion member lookup and instantiation apply); it is empty unless
// t is an application. It returns the substitution by value, so a
// caller's copy stays on its stack.
func CaptureSubst(t Type) (sigma Substitution) {
	if app, ok := t.(*App); ok {
		for i, p := range app.Ctor.Params {
			sigma.Bind(p, stripProjection(app.Args[i]))
		}
	}
	return sigma
}

// Clone returns an independent copy of the substitution.
func (s *Substitution) Clone() *Substitution {
	c := &Substitution{n: s.n, inline: s.inline}
	if s.spill != nil {
		c.spill = append(bindings(nil), s.spill...)
	}
	return c
}

// Merge combines s with other, returning false on a conflicting binding
// (the same parameter bound to unequal types).
func (s *Substitution) Merge(other *Substitution) bool {
	if other == nil {
		return true
	}
	for _, bd := range other.view() {
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
	if s == nil {
		return t
	}
	return s.view().applyB(b, t)
}

// applyB is ApplyB over a bare binding slice.
func (bs bindings) applyB(b *governor.Budget, t Type) Type {
	if t == nil || len(bs) == 0 {
		return t
	}
	b.Charge(1)
	b.Enter()
	out := bs.applyWalk(b, t)
	b.Exit()
	return out
}

func (bs bindings) applyWalk(b *governor.Budget, t Type) Type {
	switch tt := t.(type) {
	case *Parameter:
		if i := bs.index(tt); i >= 0 {
			return bs[i].t
		}
		return tt
	case *App:
		// Copy the application only once an argument changes.
		var out *App
		for i, a := range tt.Args {
			na := bs.applyB(b, a)
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
		nb := bs.applyB(b, tt.Bound)
		if nb == tt.Bound {
			return tt
		}
		return &Projection{Var: tt.Var, Bound: nb}
	case *Func:
		params := make([]Type, len(tt.Params))
		for i, p := range tt.Params {
			params[i] = bs.applyB(b, p)
		}
		return &Func{Params: params, Ret: bs.applyB(b, tt.Ret)}
	case *Intersection:
		ms := make([]Type, len(tt.Members))
		for i, m := range tt.Members {
			ms[i] = bs.applyB(b, m)
		}
		return &Intersection{Members: ms}
	case *Constructor:
		// Substituting under a binder: Definition 3.1 substitutes only
		// free parameters, so skip the constructor's own parameters.
		if tt.Super == nil {
			return tt
		}
		inner := bs.without(tt.Params)
		if len(inner) == 0 {
			return tt
		}
		return &Constructor{
			TypeName: tt.TypeName,
			Params:   tt.Params,
			Super:    inner.applyB(b, tt.Super),
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

// without returns bs minus the bindings of the given parameters: bs
// itself when none of them is bound, otherwise a filtered copy.
func (bs bindings) without(params []*Parameter) bindings {
	shadows := func(p *Parameter) bool {
		for _, q := range params {
			if q.SameAs(p) {
				return true
			}
		}
		return false
	}
	i := 0
	for i < len(bs) && !shadows(bs[i].p) {
		i++
	}
	if i == len(bs) {
		return bs
	}
	out := append(make(bindings, 0, len(bs)-1), bs[:i]...)
	for _, bd := range bs[i+1:] {
		if !shadows(bd.p) {
			out = append(out, bd)
		}
	}
	return out
}

func (s *Substitution) String() string {
	parts := make([]string, 0, s.Len())
	for _, p := range s.Domain() {
		t, _ := s.Lookup(p)
		parts = append(parts, p.ID()+" ↦ "+t.String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
