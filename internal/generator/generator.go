package generator

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/ir"
	"repro/internal/types"
)

// Generator produces random well-typed IR programs. It maintains the
// paper's "context" — every declaration generated so far, consulted
// whenever a declaration or type is needed (Section 3.2).
type Generator struct {
	cfg Config
	rng *rand.Rand
	b   *types.Builtins

	prog    *ir.Program
	classes []*ir.ClassDecl
	funcs   []*ir.FuncDecl

	// Per-program memo of pure derivations, emptied by Generate and
	// GenerateStress: the builtins conforming to each bound (keyed by the
	// bound's identity; types are immutable) and each class's Type().
	builtinPools map[types.Type][]types.Type
	classTypes   map[*ir.ClassDecl]types.Type

	// Scratch stacks for the choices of one resolution step: the
	// permutations it draws (pushPerm) and the callees it may try
	// (resolveMethodCall, resolveMatchingClass). A step pushes its part,
	// nested steps push above it, and the step pops its part before it
	// returns, so both are empty between programs.
	perm  []int
	cands []candidate

	classN, funcN, varN, fieldN, methodN int
}

// New returns a generator for the given configuration. Limits are
// clamped to workable minimums (Config.Normalized) so any
// configuration is safe to run.
func New(cfg Config) *Generator {
	cfg = cfg.Normalized()
	return &Generator{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		b:            types.NewBuiltins(),
		builtinPools: map[types.Type][]types.Type{},
		classTypes:   map[*ir.ClassDecl]types.Type{},
	}
}

// Builtins exposes the generator's builtin universe (shared with checking
// and translation of its programs).
func (g *Generator) Builtins() *types.Builtins { return g.b }

// Generate produces one random program.
func (g *Generator) Generate() *ir.Program {
	g.reset()

	n := 2 + g.rng.Intn(g.cfg.MaxTopLevelDecls-1)
	classCount := 1 + n/2
	funcCount := n - classCount
	for i := 0; i < classCount; i++ {
		g.generateClass()
	}
	for i := 0; i < funcCount; i++ {
		g.generateFunc()
	}
	// A test entry point with local declarations, the shape every
	// bug-revealing example in the paper has.
	g.generateTestFunc()
	return g.prog
}

// reset starts a new program: an empty context and an empty memo.
func (g *Generator) reset() {
	g.prog = &ir.Program{}
	g.classes = nil
	g.funcs = nil
	clear(g.builtinPools)
	clear(g.classTypes)
	clear(g.cands[:cap(g.cands)]) // drop the last program's declarations
}

// GenerateBatch produces n programs, each in its own package so batched
// compilation does not produce conflicting declarations (Section 3.5).
func (g *Generator) GenerateBatch(n int) []*ir.Program {
	out := make([]*ir.Program, n)
	for i := range out {
		p := g.Generate()
		p.Package = fmt.Sprintf("pkg%d", i)
		out[i] = p
	}
	return out
}

// ----- scope -----

// scopeVar is a variable visible to expression generation.
type scopeVar struct {
	name    string
	typ     types.Type
	mutable bool
}

type scope struct {
	vars []scopeVar
	// typeParams in scope (class + method parameters).
	typeParams []*types.Parameter
	// curClass is the enclosing class, if any.
	curClass *ir.ClassDecl
}

func (s *scope) withVar(name string, t types.Type, mutable bool) {
	s.vars = append(s.vars, scopeVar{name: name, typ: t, mutable: mutable})
}

// ----- declarations -----

func (g *Generator) freshClassName() string  { g.classN++; return fmt.Sprintf("Cls%d", g.classN) }
func (g *Generator) freshFuncName() string   { g.funcN++; return fmt.Sprintf("fn%d", g.funcN) }
func (g *Generator) freshVarName() string    { g.varN++; return fmt.Sprintf("v%d", g.varN) }
func (g *Generator) freshFieldName() string  { g.fieldN++; return fmt.Sprintf("f%d", g.fieldN) }
func (g *Generator) freshMethodName() string { g.methodN++; return fmt.Sprintf("m%d", g.methodN) }

// generateTypeParams creates up to MaxTypeParams fresh type parameters for
// an owner, with optional concrete upper bounds (bounded polymorphism) and
// occasional declaration-site covariance.
func (g *Generator) generateTypeParams(owner string, forClass bool) []*types.Parameter {
	n := 1 + g.rng.Intn(g.cfg.MaxTypeParams)
	params := make([]*types.Parameter, n)
	for i := range params {
		p := &types.Parameter{Owner: owner, ParamName: fmt.Sprintf("T%d", i)}
		if g.cfg.BoundedPolymorphism && g.rng.Float64() < g.cfg.ProbBound {
			p.Bound = g.groundType(nil, 1)
		}
		if forClass && g.cfg.Variance && g.rng.Float64() < 0.2 {
			p.Var = types.Covariant
		}
		params[i] = p
	}
	return params
}

func (g *Generator) generateClass() *ir.ClassDecl {
	cls := &ir.ClassDecl{Name: g.freshClassName(), Open: g.rng.Float64() < 0.6}
	if g.cfg.ParametricPolymorphism && g.rng.Float64() < g.cfg.ProbParameterizedClass {
		cls.TypeParams = g.generateTypeParams(cls.Name, true)
	}
	sc := &scope{curClass: cls, typeParams: cls.TypeParams}

	// Optionally extend an existing open class (Inheritance).
	if g.cfg.Inheritance && g.rng.Float64() < 0.4 {
		if super := g.pickOpenClass(); super != nil {
			superType := g.instantiate(super, sc, 1, true)
			if superType != nil {
				cls.Super = &ir.SuperRef{Type: superType}
			}
		}
	}

	nf := g.rng.Intn(g.cfg.MaxFields + 1)
	for i := 0; i < nf; i++ {
		cls.Fields = append(cls.Fields, &ir.FieldDecl{
			Name: g.freshFieldName(),
			Type: g.fieldType(sc),
		})
	}
	// Register before generating super-constructor args and methods so
	// the class can reference itself.
	g.prog.Decls = append(g.prog.Decls, cls)
	g.classes = append(g.classes, cls)

	if cls.Super != nil {
		superCls := g.classByName(typeName(cls.Super.Type))
		if superCls != nil {
			sigma := types.CaptureSubst(cls.Super.Type)
			fieldScope := &scope{curClass: cls, typeParams: cls.TypeParams}
			for _, f := range cls.Fields {
				fieldScope.withVar(f.Name, f.Type, false)
			}
			for _, sf := range superCls.Fields {
				want := sigma.Apply(sf.Type)
				cls.Super.Args = append(cls.Super.Args, g.generateExpr(want, fieldScope, 1))
			}
		}
	}

	nm := g.rng.Intn(g.cfg.MaxMethods + 1)
	for i := 0; i < nm; i++ {
		cls.Methods = append(cls.Methods, g.generateMethod(cls))
	}
	return cls
}

// fieldType picks a type usable for a field: any available type, with
// covariant parameters allowed (val fields are out-positions).
func (g *Generator) fieldType(sc *scope) types.Type {
	return g.generateType(sc, 2)
}

func (g *Generator) generateMethod(cls *ir.ClassDecl) *ir.FuncDecl {
	f := &ir.FuncDecl{Name: g.freshMethodName()}
	sc := &scope{curClass: cls, typeParams: cls.TypeParams}
	if g.cfg.ParametricPolymorphism && g.rng.Float64() < g.cfg.ProbParameterizedFunc {
		f.TypeParams = g.generateTypeParams(f.Name, false)
		sc.typeParams = append(append([]*types.Parameter{}, cls.TypeParams...), f.TypeParams...)
	}
	for _, fd := range cls.Fields {
		sc.withVar(fd.Name, fd.Type, fd.Mutable)
	}
	g.finishFunc(f, sc)
	return f
}

func (g *Generator) generateFunc() *ir.FuncDecl {
	f := &ir.FuncDecl{Name: g.freshFuncName()}
	sc := &scope{}
	if g.cfg.ParametricPolymorphism && g.rng.Float64() < g.cfg.ProbParameterizedFunc {
		f.TypeParams = g.generateTypeParams(f.Name, false)
		sc.typeParams = f.TypeParams
	}
	g.prog.Decls = append(g.prog.Decls, f)
	g.funcs = append(g.funcs, f)
	g.finishFunc(f, sc)
	return f
}

// finishFunc fills parameters, a return type, and a body.
func (g *Generator) finishFunc(f *ir.FuncDecl, sc *scope) {
	np := g.rng.Intn(g.cfg.MaxParams + 1)
	for i := 0; i < np; i++ {
		name := g.freshVarName()
		pt := g.paramType(sc)
		f.Params = append(f.Params, &ir.ParamDecl{Name: name, Type: pt})
		sc.withVar(name, pt, false)
	}
	f.Ret = g.generateType(sc, 2)
	depth := 2 + g.rng.Intn(g.cfg.MaxDepth-1)
	f.Body = g.generateExpr(f.Ret, sc, depth)
}

// paramType picks a method-parameter type, avoiding covariant class
// parameters (which may not occur in in-positions).
func (g *Generator) paramType(sc *scope) types.Type {
	for try := 0; try < 8; try++ {
		t := g.generateType(sc, 2)
		if !usesCovariantParam(t, sc.typeParams) {
			return t
		}
	}
	return g.b.Int
}

func usesCovariantParam(t types.Type, params []*types.Parameter) bool {
	for _, p := range params {
		if p.Var == types.Covariant && types.ContainsParameter(t, p) {
			return true
		}
	}
	return false
}

// generateTestFunc emits the campaign's entry point: a Unit function whose
// body declares locals with explicit types (erasure/overwrite fodder) and
// exercises calls.
func (g *Generator) generateTestFunc() {
	f := &ir.FuncDecl{Name: "test", Ret: g.b.Unit}
	g.prog.Decls = append(g.prog.Decls, f)
	g.funcs = append(g.funcs, f)
	sc := &scope{}
	block := &ir.Block{}
	n := 1 + g.rng.Intn(g.cfg.MaxLocals)
	for i := 0; i < n; i++ {
		name := g.freshVarName()
		// Type-driven generation: construct a type t, then an expression
		// of a type t' <: t, exercising subtyping rules (Section 3.2).
		declType := g.generateType(sc, 2)
		init := g.generateExpr(declType, sc, g.cfg.MaxDepth)
		block.Stmts = append(block.Stmts, &ir.VarDecl{
			Name:     name,
			DeclType: declType,
			Init:     init,
		})
		sc.withVar(name, declType, false)
	}
	block.Value = &ir.Const{Type: g.b.Unit}
	f.Body = block
}

// ----- choices -----

// permInto draws a permutation of [0, len(p)) into p with exactly the
// draws rand.Perm(len(p)) makes, so a seed's choices do not depend on
// where the permutation is kept.
func (g *Generator) permInto(p []int) {
	for i := range p {
		j := g.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// pushPerm draws a permutation of [0, n) onto the perm stack and returns
// its base. Nested steps may grow the stack, so the caller reads
// g.perm[base+k], and pops with popPerm(base) before it returns.
func (g *Generator) pushPerm(n int) int {
	base := len(g.perm)
	g.perm = slices.Grow(g.perm, n)[:base+n]
	g.permInto(g.perm[base:])
	return base
}

func (g *Generator) popPerm(base int) { g.perm = g.perm[:base] }

// ----- helpers over the context -----

// classType is cls.Type(), built once per class and program. generateClass
// sets a class's supertype before registering it, so the type is final by
// the time anything asks for it. (Stress chains set it afterwards and call
// cls.Type() directly.)
func (g *Generator) classType(cls *ir.ClassDecl) types.Type {
	t, ok := g.classTypes[cls]
	if !ok {
		t = cls.Type()
		g.classTypes[cls] = t
	}
	return t
}

func (g *Generator) classByName(name string) *ir.ClassDecl {
	for _, c := range g.classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func (g *Generator) pickOpenClass() *ir.ClassDecl {
	var open []*ir.ClassDecl
	for _, c := range g.classes {
		if c.Open {
			open = append(open, c)
		}
	}
	if len(open) == 0 {
		return nil
	}
	return open[g.rng.Intn(len(open))]
}

func typeName(t types.Type) string {
	switch tt := t.(type) {
	case *types.Simple:
		return tt.TypeName
	case *types.App:
		return tt.Ctor.TypeName
	case *types.Constructor:
		return tt.TypeName
	}
	return ""
}
