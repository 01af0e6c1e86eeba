package types

import "testing"

// TestSubtypeClimbAllocatesOnlyResultApplications pins the stack-bound
// substitution of SupertypeB: climbing class C<T> : B<T>, B<T> : A<T>
// allocates one application per climb step (the substituted supertype)
// and nothing for the bindings.
func TestSubtypeClimbAllocatesOnlyResultApplications(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	cT := NewParameter("C", "T")
	ctorC := NewConstructor("C", []*Parameter{cT}, ctorB.Apply(cT))
	aInt := ctorA.Apply(b.Int)
	for _, tc := range []struct {
		sub   *App
		steps float64
	}{
		{ctorB.Apply(b.Int), 1},
		{ctorC.Apply(b.Int), 2},
	} {
		if !IsSubtype(tc.sub, aInt) {
			t.Fatalf("%s <: %s should hold", tc.sub, aInt)
		}
		if got := testing.AllocsPerRun(100, func() { IsSubtype(tc.sub, aInt) }); got > tc.steps {
			t.Errorf("IsSubtype(%s, %s): %.0f allocs/op, want at most %.0f (one application per climb step)",
				tc.sub, aInt, got, tc.steps)
		}
	}
}

// TestFailedUnifyAllocatesNoSubstitution pins that unification binds on
// the stack and builds a Substitution only for a success.
func TestFailedUnifyAllocatesNoSubstitution(t *testing.T) {
	_, ctorB, b := hierarchy()
	bT := ctorB.Apply(ctorB.Params[0])
	if Unify(bT, b.String) != nil {
		t.Fatal("B<T> must not unify with String")
	}
	if got := testing.AllocsPerRun(100, func() { Unify(bT, b.String) }); got != 0 {
		t.Errorf("failed Unify: %.0f allocs/op, want 0", got)
	}
	if s := Unify(bT, ctorB.Apply(b.Int)); s == nil || s.Len() != 1 {
		t.Fatalf("B<T> against B<Int> = %v, want [B.T ↦ Int]", s)
	}
}

// TestZeroSubstitutionIsEmpty pins that a Substitution declared as a
// value is usable as is, which the stack-bound callers rely on.
func TestZeroSubstitutionIsEmpty(t *testing.T) {
	_, _, b := hierarchy()
	var s Substitution
	p := NewParameter("f", "T")
	if !s.IsEmpty() || s.Apply(p) != p {
		t.Fatal("zero Substitution is not the identity")
	}
	s.Bind(p, b.Int)
	s.Bind(p, b.String) // the last bind wins
	if got, _ := s.Lookup(p); got != b.String || s.Len() != 1 {
		t.Fatalf("after rebinding: %s", &s)
	}
}

var builtinSink []Type

// TestBuiltinListsAreSharedAndCapped pins that All and Defaultable build
// nothing per call, and that an append to either copies rather than
// writing into the shared backing array.
func TestBuiltinListsAreSharedAndCapped(t *testing.T) {
	b := NewBuiltins()
	if got := testing.AllocsPerRun(100, func() { builtinSink, builtinSink = b.All(), b.Defaultable() }); got != 0 {
		t.Errorf("All/Defaultable: %.0f allocs/op, want 0", got)
	}
	for name, list := range map[string]func() []Type{"All": b.All, "Defaultable": b.Defaultable} {
		before := list()
		if &list()[0] != &before[0] {
			t.Errorf("%s built a new slice on a second call", name)
		}
		_ = append(list(), b.Unit)
		after := list()
		if len(after) != len(before) || cap(after) != len(after) {
			t.Errorf("%s: len %d cap %d after an append, want len %d = cap", name, len(after), cap(after), len(before))
		}
	}
	if b.Defaultable()[0] != b.Byte || b.All()[0] != b.Number {
		t.Error("builtin order changed")
	}
}
