// Package apisynth implements API-driven program synthesis — the
// authors' sequel direction (Thalia, arXiv:2311.04527). Instead of
// growing programs top-down from the type grammar like
// internal/generator, it starts from an API corpus (class, method,
// field, and generic-function signatures) and walks the signatures
// bottom-up, assembling well-typed receiver expressions and call
// chains against the API surface. That exercises the resolution and
// overload-selection paths a type checker spends its time on — method
// lookup over superclass chains with receiver substitution, explicit
// generic instantiation, bound conformance — which grammar-driven
// generation rarely reaches.
//
// Every synthesized program is verified against the reference checker
// before it leaves the package, and synthesis is a pure function of
// (corpus, seed), so campaigns stay byte-for-byte deterministic at any
// worker count, across fabric shards, and across kill/-resume.
package apisynth

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/ir"
	"repro/internal/types"
)

// TypeSig is a serializable type reference: a name plus optional type
// arguments. Names resolve, in order, against the type parameters in
// scope, the builtin universe (Int, String, Any, ...), and the
// corpus's own classes.
type TypeSig struct {
	Name string    `json:"name"`
	Args []TypeSig `json:"args,omitempty"`
}

// T is shorthand for a TypeSig leaf.
func T(name string, args ...TypeSig) TypeSig {
	return TypeSig{Name: name, Args: args}
}

// TypeParamSig declares one type parameter with an optional upper
// bound.
type TypeParamSig struct {
	Name  string   `json:"name"`
	Bound *TypeSig `json:"bound,omitempty"`
}

// ParamSig is one formal parameter of a method or function.
type ParamSig struct {
	Name string  `json:"name"`
	Type TypeSig `json:"type"`
}

// FieldSig is one class field (and, Kotlin primary-constructor style,
// one constructor parameter).
type FieldSig struct {
	Name string  `json:"name"`
	Type TypeSig `json:"type"`
}

// MethodSig is one method signature. Return types are always explicit:
// the corpus describes an API surface, not bodies to infer from.
type MethodSig struct {
	Name       string         `json:"name"`
	TypeParams []TypeParamSig `json:"typeParams,omitempty"`
	Params     []ParamSig     `json:"params,omitempty"`
	Ret        TypeSig        `json:"ret"`
}

// ClassSig is one API class: fields double as constructor parameters,
// Super (optional) names an open corpus class, possibly instantiated.
type ClassSig struct {
	Name       string         `json:"name"`
	TypeParams []TypeParamSig `json:"typeParams,omitempty"`
	Open       bool           `json:"open,omitempty"`
	Super      *TypeSig       `json:"super,omitempty"`
	Fields     []FieldSig     `json:"fields,omitempty"`
	Methods    []MethodSig    `json:"methods,omitempty"`
}

// FuncSig is one top-level function signature.
type FuncSig struct {
	Name       string         `json:"name"`
	TypeParams []TypeParamSig `json:"typeParams,omitempty"`
	Params     []ParamSig     `json:"params,omitempty"`
	Ret        TypeSig        `json:"ret"`
}

// Corpus is the API surface the synthesizer draws from. It is the
// JSON document -synth-corpus loads, and what Extract mines from
// existing programs.
type Corpus struct {
	Classes []ClassSig `json:"classes"`
	Funcs   []FuncSig  `json:"funcs"`
}

// Merge returns the union of c and other, first-writer-wins on class
// and function names, declaration order preserved (deterministic).
func (c Corpus) Merge(other Corpus) Corpus {
	out := Corpus{}
	seenC := map[string]bool{}
	for _, cs := range append(append([]ClassSig{}, c.Classes...), other.Classes...) {
		if seenC[cs.Name] {
			continue
		}
		seenC[cs.Name] = true
		out.Classes = append(out.Classes, cs)
	}
	seenF := map[string]bool{}
	for _, fs := range append(append([]FuncSig{}, c.Funcs...), other.Funcs...) {
		if seenF[fs.Name] {
			continue
		}
		seenF[fs.Name] = true
		out.Funcs = append(out.Funcs, fs)
	}
	return out
}

// LoadFile parses a JSON corpus document and validates that it
// resolves (every type name known, every super open).
func LoadFile(path string) (Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Corpus{}, fmt.Errorf("apisynth: %w", err)
	}
	var c Corpus
	if err := json.Unmarshal(data, &c); err != nil {
		return Corpus{}, fmt.Errorf("apisynth: parse %s: %w", path, err)
	}
	if _, err := c.Resolve(types.NewBuiltins()); err != nil {
		return Corpus{}, fmt.Errorf("apisynth: %s: %w", path, err)
	}
	return c, nil
}

// Resolved is a corpus materialized into IR declarations: class and
// function decls with stub bodies (val(t) constants of the declared
// return type), ready to prepend to every synthesized program. The
// decl pointers are shared across programs; they are never mutated
// after Resolve (checking is read-only, and Synthesized units are not
// mutable per the oracle's capability table).
type Resolved struct {
	Classes []*ir.ClassDecl
	Funcs   []*ir.FuncDecl
	// ClassSigs/FuncSigs are the source signatures, index-aligned.
	ClassSigs []ClassSig
	FuncSigs  []FuncSig
}

// Decls returns the materialized declarations in corpus order.
func (r *Resolved) Decls() []ir.Decl {
	out := make([]ir.Decl, 0, len(r.Classes)+len(r.Funcs))
	for _, c := range r.Classes {
		out = append(out, c)
	}
	for _, f := range r.Funcs {
		out = append(out, f)
	}
	return out
}

// resolver resolves TypeSigs against a scope of type parameters, the
// builtins, and the corpus's class shells.
type resolver struct {
	b       *types.Builtins
	classes map[string]*ir.ClassDecl
}

func (r *resolver) resolve(sig TypeSig, scope map[string]*types.Parameter) (types.Type, error) {
	if p, ok := scope[sig.Name]; ok {
		if len(sig.Args) > 0 {
			return nil, fmt.Errorf("type parameter %s cannot take arguments", sig.Name)
		}
		return p, nil
	}
	if t := r.b.ByName(sig.Name); t != nil {
		if len(sig.Args) > 0 {
			if sig.Name == "Array" {
				return r.applyCtor(r.b.Array, sig, scope)
			}
			return nil, fmt.Errorf("builtin %s cannot take arguments", sig.Name)
		}
		return t, nil
	}
	cls, ok := r.classes[sig.Name]
	if !ok {
		return nil, fmt.Errorf("unknown type %q", sig.Name)
	}
	switch t := cls.Type().(type) {
	case *types.Constructor:
		return r.applyCtor(t, sig, scope)
	default:
		if len(sig.Args) > 0 {
			return nil, fmt.Errorf("class %s is not parameterized", sig.Name)
		}
		return t, nil
	}
}

func (r *resolver) applyCtor(ctor *types.Constructor, sig TypeSig, scope map[string]*types.Parameter) (types.Type, error) {
	if len(sig.Args) != len(ctor.Params) {
		return nil, fmt.Errorf("%s expects %d type arguments, got %d", sig.Name, len(ctor.Params), len(sig.Args))
	}
	args := make([]types.Type, len(sig.Args))
	for i, a := range sig.Args {
		t, err := r.resolve(a, scope)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	return ctor.Apply(args...), nil
}

// typeParams materializes a signature's type parameters, binding their
// bounds against the enclosing scope plus the parameters themselves
// (so F-bounded signatures resolve).
func (r *resolver) typeParams(owner string, sigs []TypeParamSig, outer map[string]*types.Parameter) ([]*types.Parameter, map[string]*types.Parameter, error) {
	scope := map[string]*types.Parameter{}
	for k, v := range outer {
		scope[k] = v
	}
	params := make([]*types.Parameter, len(sigs))
	for i, s := range sigs {
		p := types.NewParameter(owner, s.Name)
		params[i] = p
		scope[s.Name] = p
	}
	for i, s := range sigs {
		if s.Bound == nil {
			continue
		}
		bound, err := r.resolve(*s.Bound, scope)
		if err != nil {
			return nil, nil, fmt.Errorf("bound of %s.%s: %w", owner, s.Name, err)
		}
		params[i].Bound = bound
	}
	return params, scope, nil
}

// Resolve materializes the corpus into IR declarations. Two passes:
// class shells first (so forward and mutual references resolve), then
// member signatures. Method and function bodies are val(t) stubs of
// the declared return type — the corpus is an API surface, bodies
// only exist so the program is self-contained and checkable.
func (c Corpus) Resolve(b *types.Builtins) (*Resolved, error) {
	r := &resolver{b: b, classes: map[string]*ir.ClassDecl{}}
	res := &Resolved{ClassSigs: c.Classes, FuncSigs: c.Funcs}

	// Pass 1: shells with type parameters, so Type() is available.
	for _, cs := range c.Classes {
		if r.classes[cs.Name] != nil {
			return nil, fmt.Errorf("duplicate class %q", cs.Name)
		}
		if b.ByName(cs.Name) != nil {
			return nil, fmt.Errorf("class %q shadows a builtin", cs.Name)
		}
		cls := &ir.ClassDecl{Name: cs.Name, Open: cs.Open}
		params, _, err := r.typeParams(cs.Name, cs.TypeParams, nil)
		if err != nil {
			return nil, err
		}
		cls.TypeParams = params
		r.classes[cs.Name] = cls
		res.Classes = append(res.Classes, cls)
	}

	// Pass 2: supers, fields, methods.
	for i, cs := range c.Classes {
		cls := res.Classes[i]
		scope := map[string]*types.Parameter{}
		for _, p := range cls.TypeParams {
			scope[p.ParamName] = p
		}
		if cs.Super != nil {
			if err := r.resolveSuper(cls, *cs.Super, scope); err != nil {
				return nil, fmt.Errorf("class %s: %w", cs.Name, err)
			}
		}
		for _, fs := range cs.Fields {
			ft, err := r.resolve(fs.Type, scope)
			if err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", cs.Name, fs.Name, err)
			}
			cls.Fields = append(cls.Fields, &ir.FieldDecl{Name: fs.Name, Type: ft})
		}
		for _, ms := range cs.Methods {
			m, err := r.method(cs.Name, ms, scope)
			if err != nil {
				return nil, fmt.Errorf("method %s.%s: %w", cs.Name, ms.Name, err)
			}
			cls.Methods = append(cls.Methods, m)
		}
	}
	for _, fs := range c.Funcs {
		f, err := r.method("", fs.asMethod(), nil)
		if err != nil {
			return nil, fmt.Errorf("func %s: %w", fs.Name, err)
		}
		res.Funcs = append(res.Funcs, f)
	}
	return res, nil
}

func (fs FuncSig) asMethod() MethodSig {
	return MethodSig{Name: fs.Name, TypeParams: fs.TypeParams, Params: fs.Params, Ret: fs.Ret}
}

// resolveSuper materializes `: Super<args>(ē)`: the super must be an
// open corpus class, and the constructor arguments are val(t) stubs of
// the super's own fields under the instantiation substitution.
func (r *resolver) resolveSuper(cls *ir.ClassDecl, sig TypeSig, scope map[string]*types.Parameter) error {
	super, ok := r.classes[sig.Name]
	if !ok {
		return fmt.Errorf("unknown superclass %q", sig.Name)
	}
	if !super.Open {
		return fmt.Errorf("superclass %s is not open", sig.Name)
	}
	st, err := r.resolve(sig, scope)
	if err != nil {
		return err
	}
	sigma := types.NewSubstitution()
	if app, ok := st.(*types.App); ok {
		for i, p := range app.Ctor.Params {
			sigma.Bind(p, app.Args[i])
		}
	}
	args := make([]ir.Expr, len(super.Fields))
	for i, f := range super.Fields {
		args[i] = &ir.Const{Type: sigma.Apply(f.Type)}
	}
	cls.Super = &ir.SuperRef{Type: st, Args: args}
	return nil
}

// method materializes one signature with a val(ret) stub body. owner
// is "" for top-level functions; method type-parameter identities are
// namespaced owner.name so class and method parameters never collide.
func (r *resolver) method(owner string, ms MethodSig, outer map[string]*types.Parameter) (*ir.FuncDecl, error) {
	ns := ms.Name
	if owner != "" {
		ns = owner + "." + ms.Name
	}
	params, scope, err := r.typeParams(ns, ms.TypeParams, outer)
	if err != nil {
		return nil, err
	}
	f := &ir.FuncDecl{Name: ms.Name, TypeParams: params}
	for _, ps := range ms.Params {
		pt, err := r.resolve(ps.Type, scope)
		if err != nil {
			return nil, fmt.Errorf("param %s: %w", ps.Name, err)
		}
		f.Params = append(f.Params, &ir.ParamDecl{Name: ps.Name, Type: pt})
	}
	ret, err := r.resolve(ms.Ret, scope)
	if err != nil {
		return nil, fmt.Errorf("return type: %w", err)
	}
	f.Ret = ret
	f.Body = &ir.Const{Type: ret}
	return f, nil
}

// Extract mines API signatures from existing programs — the seeding
// path that turns internal/corpus's hand-written suite into
// synthesizer fuel. It is deliberately conservative: only
// regular, superless classes whose member types the TypeSig grammar
// can express (nominal types, builtins, type parameters) are taken;
// anything else (function types, projections, inherited members) is
// skipped rather than approximated. First-writer-wins on names across
// programs, so extraction order is part of the corpus identity.
func Extract(progs ...*ir.Program) Corpus {
	var c Corpus
	seenC := map[string]bool{}
	seenF := map[string]bool{}
	b := types.NewBuiltins()
	for _, p := range progs {
		for _, cls := range p.Classes() {
			if cls.Kind != ir.RegularClass || cls.Super != nil || seenC[cls.Name] || b.ByName(cls.Name) != nil {
				continue
			}
			if cs, ok := extractClass(cls); ok {
				seenC[cls.Name] = true
				c.Classes = append(c.Classes, cs)
			}
		}
		for _, fn := range p.Functions() {
			if seenF[fn.Name] || fn.Name == "test" {
				continue
			}
			if ms, ok := extractSig(fn); ok {
				seenF[fn.Name] = true
				c.Funcs = append(c.Funcs, FuncSig{
					Name: ms.Name, TypeParams: ms.TypeParams, Params: ms.Params, Ret: ms.Ret,
				})
			}
		}
	}
	return c
}

func extractClass(cls *ir.ClassDecl) (ClassSig, bool) {
	cs := ClassSig{Name: cls.Name, Open: cls.Open}
	var ok bool
	if cs.TypeParams, ok = extractTypeParams(cls.TypeParams); !ok {
		return ClassSig{}, false
	}
	for _, f := range cls.Fields {
		ts, ok := extractType(f.Type)
		if !ok {
			return ClassSig{}, false
		}
		cs.Fields = append(cs.Fields, FieldSig{Name: f.Name, Type: ts})
	}
	for _, m := range cls.Methods {
		ms, ok := extractSig(m)
		if !ok {
			// Skip the member, keep the class: a partial API view is
			// still a valid (smaller) API.
			continue
		}
		cs.Methods = append(cs.Methods, ms)
	}
	return cs, true
}

func extractSig(f *ir.FuncDecl) (MethodSig, bool) {
	if f.Ret == nil || f.Override {
		return MethodSig{}, false
	}
	ms := MethodSig{Name: f.Name}
	var ok bool
	if ms.TypeParams, ok = extractTypeParams(f.TypeParams); !ok {
		return MethodSig{}, false
	}
	for _, p := range f.Params {
		ts, tok := extractType(p.Type)
		if !tok {
			return MethodSig{}, false
		}
		ms.Params = append(ms.Params, ParamSig{Name: p.Name, Type: ts})
	}
	if ms.Ret, ok = extractType(f.Ret); !ok {
		return MethodSig{}, false
	}
	return ms, true
}

func extractTypeParams(ps []*types.Parameter) ([]TypeParamSig, bool) {
	var out []TypeParamSig
	for _, p := range ps {
		if p.Var != types.Invariant {
			return nil, false
		}
		tp := TypeParamSig{Name: p.ParamName}
		if p.Bound != nil {
			bs, ok := extractType(p.Bound)
			if !ok {
				return nil, false
			}
			tp.Bound = &bs
		}
		out = append(out, tp)
	}
	return out, true
}

// extractType maps a types.Type back to a TypeSig, when expressible.
func extractType(t types.Type) (TypeSig, bool) {
	switch tt := t.(type) {
	case types.Top:
		return T("Any"), true
	case types.Bottom:
		return T("Nothing"), true
	case *types.Simple:
		return T(tt.TypeName), true
	case *types.Parameter:
		return T(tt.ParamName), true
	case *types.App:
		sig := TypeSig{Name: tt.Ctor.TypeName}
		for _, a := range tt.Args {
			as, ok := extractType(a)
			if !ok {
				return TypeSig{}, false
			}
			sig.Args = append(sig.Args, as)
		}
		return sig, true
	default:
		return TypeSig{}, false
	}
}

// Fingerprint returns a stable JSON rendering of the corpus, used by
// tests and available for diagnostics; classes and functions keep
// declaration order (order is semantic: first-writer-wins merging).
func (c Corpus) Fingerprint() string {
	data, _ := json.Marshal(c)
	return string(data)
}

// Names returns the sorted class names, for diagnostics.
func (c Corpus) Names() []string {
	out := make([]string, 0, len(c.Classes))
	for _, cs := range c.Classes {
		out = append(out, cs.Name)
	}
	sort.Strings(out)
	return out
}
