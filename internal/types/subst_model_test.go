package types

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/governor"
)

// mapSubst is the substitution as it was first written: two maps keyed by
// Parameter.ID(). It is kept here as the reference model the slice-backed
// Substitution must agree with.
type mapSubst struct {
	bindings map[string]Type
	params   map[string]*Parameter
}

func newMapSubst() *mapSubst {
	return &mapSubst{bindings: map[string]Type{}, params: map[string]*Parameter{}}
}

func (s *mapSubst) Bind(p *Parameter, t Type) {
	s.bindings[p.ID()] = t
	s.params[p.ID()] = p
}

func (s *mapSubst) Lookup(p *Parameter) (Type, bool) {
	t, ok := s.bindings[p.ID()]
	return t, ok
}

func (s *mapSubst) Len() int { return len(s.bindings) }

func (s *mapSubst) Domain() []*Parameter {
	ids := make([]string, 0, len(s.params))
	for id := range s.params {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Parameter, len(ids))
	for i, id := range ids {
		out[i] = s.params[id]
	}
	return out
}

func (s *mapSubst) Clone() *mapSubst {
	c := newMapSubst()
	for id, t := range s.bindings {
		c.bindings[id] = t
		c.params[id] = s.params[id]
	}
	return c
}

func (s *mapSubst) Merge(other *mapSubst) bool {
	for id, t := range other.bindings {
		if prev, ok := s.bindings[id]; ok && !prev.Equal(t) {
			return false
		}
		s.bindings[id] = t
		s.params[id] = other.params[id]
	}
	return true
}

func (s *mapSubst) ApplyB(b *governor.Budget, t Type) Type {
	if t == nil || s == nil || len(s.bindings) == 0 {
		return t
	}
	b.Charge(1)
	b.Enter()
	out := s.applyWalk(b, t)
	b.Exit()
	return out
}

func (s *mapSubst) applyWalk(b *governor.Budget, t Type) Type {
	switch tt := t.(type) {
	case *Parameter:
		if bound, ok := s.bindings[tt.ID()]; ok {
			return bound
		}
		return tt
	case *App:
		args := make([]Type, len(tt.Args))
		changed := false
		for i, a := range tt.Args {
			args[i] = s.ApplyB(b, a)
			if args[i] != tt.Args[i] {
				changed = true
			}
		}
		if !changed {
			return tt
		}
		return &App{Ctor: tt.Ctor, Args: args}
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
		inner := s.Clone()
		for _, p := range tt.Params {
			delete(inner.bindings, p.ID())
			delete(inner.params, p.ID())
		}
		if tt.Super == nil || len(inner.bindings) == 0 {
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

func (s *mapSubst) String() string {
	parts := make([]string, 0, len(s.bindings))
	for _, p := range s.Domain() {
		parts = append(parts, p.ID()+" ↦ "+s.bindings[p.ID()].String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// containsParameterByID and freeParametersByID are ContainsParameter and
// FreeParameters as first written, comparing and deduplicating by ID().
func containsParameterByID(t Type, p *Parameter) bool {
	switch tt := t.(type) {
	case *Parameter:
		return tt.ID() == p.ID()
	case *App:
		for _, a := range tt.Args {
			if containsParameterByID(a, p) {
				return true
			}
		}
	case *Projection:
		return containsParameterByID(tt.Bound, p)
	case *Func:
		for _, a := range tt.Params {
			if containsParameterByID(a, p) {
				return true
			}
		}
		return containsParameterByID(tt.Ret, p)
	case *Intersection:
		for _, m := range tt.Members {
			if containsParameterByID(m, p) {
				return true
			}
		}
	}
	return false
}

func freeParametersByID(t Type) []*Parameter {
	var out []*Parameter
	seen := map[string]bool{}
	var walk func(Type)
	walk = func(t Type) {
		switch tt := t.(type) {
		case *Parameter:
			if !seen[tt.ID()] {
				seen[tt.ID()] = true
				out = append(out, tt)
			}
		case *App:
			for _, a := range tt.Args {
				walk(a)
			}
		case *Projection:
			walk(tt.Bound)
		case *Func:
			for _, a := range tt.Params {
				walk(a)
			}
			walk(tt.Ret)
		case *Intersection:
			for _, m := range tt.Members {
				walk(m)
			}
		}
	}
	walk(t)
	return out
}

// modelParams is a parameter pool full of identity corner cases: distinct
// pointers sharing an ID, IDs equal only after concatenation, equal-length
// IDs with different owners, and equal total lengths with different IDs.
func modelParams() []*Parameter {
	return []*Parameter{
		NewParameter("A", "T"),
		NewParameter("A", "T"), // same ID, distinct pointer
		{Owner: "A", ParamName: "T", Bound: NewSimple("Number", nil)},
		NewParameter("A.B", "C"),
		NewParameter("A", "B.C"), // same ID as A.B.C
		NewParameter("A", ".T"),
		NewParameter("A.", "T"), // same ID as A..T
		NewParameter("B", "T"),  // equal length to A.T, other owner
		NewParameter("AB", "T"),
		NewParameter("A", "BT"), // same length as AB.T, different ID
		NewParameter("A", "U"),
		NewParameter("Box", "T"),
		NewParameter("m", "X"),
	}
}

type modelGen struct {
	rng    *rand.Rand
	params []*Parameter
	simple []Type
	pair   *Constructor
}

func newModelGen(seed int64) *modelGen {
	params := modelParams()
	pt, pu := NewParameter("Pair", "T"), NewParameter("Pair", "U")
	return &modelGen{
		rng:    rand.New(rand.NewSource(seed)),
		params: params,
		simple: []Type{Top{}, Bottom{}, NewSimple("Int", nil), NewSimple("String", nil)},
		pair:   NewConstructor("Pair", []*Parameter{pt, pu}, nil),
	}
}

func (g *modelGen) param() *Parameter { return g.params[g.rng.Intn(len(g.params))] }

func (g *modelGen) typ(depth int) Type {
	k := g.rng.Intn(9)
	if depth <= 0 {
		k %= 2
	}
	switch k {
	case 0:
		return g.simple[g.rng.Intn(len(g.simple))]
	case 1, 2:
		return g.param()
	case 3:
		return &App{Ctor: g.pair, Args: []Type{g.typ(depth - 1), g.typ(depth - 1)}}
	case 4:
		v := Covariant
		if g.rng.Intn(2) == 0 {
			v = Contravariant
		}
		return &App{Ctor: g.pair, Args: []Type{&Projection{Var: v, Bound: g.typ(depth - 1)}, g.typ(depth - 1)}}
	case 5:
		ps := make([]Type, g.rng.Intn(3))
		for i := range ps {
			ps[i] = g.typ(depth - 1)
		}
		return &Func{Params: ps, Ret: g.typ(depth - 1)}
	case 6:
		return &Intersection{Members: []Type{g.typ(depth - 1), g.typ(depth - 1)}}
	default:
		// A constructor binding some pool parameters, so substitution
		// must skip them (shadowing) under the binder.
		own := make([]*Parameter, 1+g.rng.Intn(2))
		for i := range own {
			own[i] = g.param()
		}
		var super Type
		if g.rng.Intn(4) > 0 {
			super = g.typ(depth - 1)
		}
		return &Constructor{TypeName: "K", Params: own, Super: super}
	}
}

// deep renders a type structurally, including constructor supertypes and
// parameter IDs, which String() leaves out.
func deep(t Type) string {
	switch tt := t.(type) {
	case nil:
		return "<nil>"
	case *Parameter:
		return "P(" + tt.ID() + ")"
	case *App:
		parts := make([]string, len(tt.Args))
		for i, a := range tt.Args {
			parts[i] = deep(a)
		}
		return tt.Ctor.TypeName + "<" + strings.Join(parts, ",") + ">"
	case *Projection:
		return tt.Var.String() + " " + deep(tt.Bound)
	case *Func:
		parts := make([]string, len(tt.Params))
		for i, a := range tt.Params {
			parts[i] = deep(a)
		}
		return "(" + strings.Join(parts, ",") + ")->" + deep(tt.Ret)
	case *Intersection:
		parts := make([]string, len(tt.Members))
		for i, a := range tt.Members {
			parts[i] = deep(a)
		}
		return strings.Join(parts, "&")
	case *Constructor:
		ids := make([]string, len(tt.Params))
		for i, p := range tt.Params {
			ids[i] = p.ID()
		}
		return "Λ" + tt.TypeName + "[" + strings.Join(ids, ",") + "]:" + deep(tt.Super)
	}
	return t.String()
}

// applyOutcome runs one apply under an optional budget and captures
// everything observable: the result, whether the input came back
// unchanged, the fuel spent, and the bailout.
func applyOutcome(apply func(*governor.Budget, Type) Type, fuel int64, t Type) string {
	var b *governor.Budget
	if fuel > 0 {
		b = governor.New(fuel, 6)
	}
	var out Type
	var bail *governor.Bailout
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if bail, ok = governor.AsBailout(r); !ok {
					panic(r)
				}
			}
		}()
		out = apply(b, t)
	}()
	spent := int64(0)
	if b != nil {
		spent = b.Spent()
	}
	if bail != nil {
		return fmt.Sprintf("bail %s spent=%d", bail.Reason, spent)
	}
	return fmt.Sprintf("%s same=%v spent=%d", deep(out), out == t, spent)
}

func sameDomain(a, b []*Parameter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // the very parameter last bound for that ID
			return false
		}
	}
	return true
}

// TestSubstitutionMatchesMapModel drives the slice-backed Substitution and
// the map model through the same seeded random operation sequences and
// requires identical observable results after every step.
func TestSubstitutionMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := newModelGen(seed)
		s, m := NewSubstitution(), newMapSubst()
		for step := 0; step < 40; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := g.rng.Intn(7); op {
			case 0, 1:
				p, ty := g.param(), g.typ(2)
				s.Bind(p, ty)
				m.Bind(p, ty)
			case 2:
				p := g.param()
				st, sok := s.Lookup(p)
				mt, mok := m.Lookup(p)
				if sok != mok || st != mt {
					t.Fatalf("%s: Lookup(%s) = %v,%v; model %v,%v", where, p.ID(), st, sok, mt, mok)
				}
			case 3:
				sc, mc := s.Clone(), m.Clone()
				p, ty := g.param(), g.typ(1)
				sc.Bind(p, ty)
				mc.Bind(p, ty)
				if sc.String() != mc.String() || s.String() != m.String() {
					t.Fatalf("%s: Clone diverged: %s vs %s (originals %s vs %s)", where, sc, mc, s, m)
				}
			case 4:
				so, mo := NewSubstitution(), newMapSubst()
				for i := g.rng.Intn(3); i >= 0; i-- {
					p := g.param()
					ty := g.typ(1)
					if prev, ok := m.Lookup(p); ok && g.rng.Intn(2) == 0 {
						ty = prev // agreeing binding
					}
					so.Bind(p, ty)
					mo.Bind(p, ty)
				}
				// A failed merge leaves the receiver partially merged in
				// an unspecified (map-order) state, so merge into clones
				// and keep the result only on success.
				sc, mc := s.Clone(), m.Clone()
				sok, mok := sc.Merge(so), mc.Merge(mo)
				if sok != mok {
					t.Fatalf("%s: Merge(%s) into %s = %v; model %v", where, so, s, sok, mok)
				}
				if sok {
					s, m = sc, mc
				}
			case 5:
				ty := g.typ(3)
				fuel := int64(0)
				if g.rng.Intn(2) == 0 {
					fuel = int64(1 + g.rng.Intn(12))
				}
				got := applyOutcome(s.ApplyB, fuel, ty)
				want := applyOutcome(m.ApplyB, fuel, ty)
				if got != want {
					t.Fatalf("%s: ApplyB(fuel %d, %s) under %s = %s; model %s", where, fuel, deep(ty), s, got, want)
				}
			case 6:
				if s.Len() != m.Len() || s.IsEmpty() != (m.Len() == 0) {
					t.Fatalf("%s: Len %d, model %d", where, s.Len(), m.Len())
				}
			}
			if !sameDomain(s.Domain(), m.Domain()) || s.String() != m.String() {
				t.Fatalf("%s: state %s, model %s", where, s, m)
			}
		}
	}
}

// TestSubstitutionIdentityCorners pins the three identity cases a
// string-free comparison could get wrong.
func TestSubstitutionIdentityCorners(t *testing.T) {
	intT, strT := NewSimple("Int", nil), NewSimple("String", nil)
	cases := []struct {
		name string
		a, b *Parameter
		same bool
	}{
		{"distinct pointers, shared ID", NewParameter("A", "T"), NewParameter("A", "T"), true},
		{"equal only after concatenation", NewParameter("A.B", "C"), NewParameter("A", "B.C"), true},
		{"equal-length IDs, different owners", NewParameter("A", "T"), NewParameter("B", "T"), false},
		{"equal total length, different split", NewParameter("AB", "T"), NewParameter("A", "BT"), false},
	}
	for _, c := range cases {
		if c.a.ID() == c.b.ID() != c.same {
			t.Fatalf("%s: case is mislabelled", c.name)
		}
		s, m := NewSubstitution(), newMapSubst()
		s.Bind(c.a, intT)
		m.Bind(c.a, intT)
		st, sok := s.Lookup(c.b)
		mt, mok := m.Lookup(c.b)
		if sok != mok || st != mt || sok != c.same {
			t.Errorf("%s: Lookup = %v,%v; model %v,%v", c.name, st, sok, mt, mok)
		}
		s.Bind(c.b, strT)
		m.Bind(c.b, strT)
		if s.Len() != m.Len() || !sameDomain(s.Domain(), m.Domain()) || s.String() != m.String() {
			t.Errorf("%s: rebind gives %s (len %d), model %s (len %d)", c.name, s, s.Len(), m, m.Len())
		}
		if got := s.Apply(c.a); got != m.ApplyB(nil, c.a) {
			t.Errorf("%s: Apply(a) = %s, model %s", c.name, got, m.ApplyB(nil, c.a))
		}
	}
}

// TestParameterIdentityMatchesID checks SameAs, Equal, ContainsParameter,
// FreeParameters and the ID order against plain ID() string comparison
// on every pair of the corner-case pool and on random types over it.
func TestParameterIdentityMatchesID(t *testing.T) {
	pool := modelParams()
	for _, a := range pool {
		for _, b := range pool {
			want := a.ID() == b.ID()
			if a.SameAs(b) != want || a.Equal(b) != want {
				t.Errorf("(%q,%q) vs (%q,%q): SameAs %v, Equal %v, want %v",
					a.Owner, a.ParamName, b.Owner, b.ParamName, a.SameAs(b), a.Equal(b), want)
			}
			if got := compareIDs(a, b); got != strings.Compare(a.ID(), b.ID()) {
				t.Errorf("compareIDs(%s, %s) = %d, want %d", a.ID(), b.ID(), got, strings.Compare(a.ID(), b.ID()))
			}
		}
	}
	g := newModelGen(1)
	for i := 0; i < 2000; i++ {
		ty := g.typ(3)
		for _, p := range pool {
			if ContainsParameter(ty, p) != containsParameterByID(ty, p) {
				t.Fatalf("ContainsParameter(%s, %s) disagrees with ID comparison", deep(ty), p.ID())
			}
		}
		got, want := FreeParameters(ty), freeParametersByID(ty)
		if !sameDomain(got, want) {
			t.Fatalf("FreeParameters(%s) = %v, by ID %v", deep(ty), got, want)
		}
	}
}
