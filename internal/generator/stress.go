package generator

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/types"
)

// StressConfig configures the pathological-program stress generator: a
// seeded source of programs whose type checking is deliberately
// expensive, used to exercise the resource governor (internal/governor)
// end to end. The zero value disables stress generation.
//
// StressConfig is embedded in Config by value, never by pointer: the
// campaign fingerprint renders configs with %+v, and a pointer would
// fingerprint as an address instead of its contents.
type StressConfig struct {
	// Every enables stress generation: units whose seed s satisfies
	// s mod Every == Every-1 receive a stress program instead of a
	// regular generated one. 0 disables.
	Every int `json:"every,omitempty"`
	// ChainLength is the length of each generated supertype chain family
	// (default 25). Unify-storm cost grows as binomial(2n, n), lub-storm
	// cost polynomially.
	ChainLength int `json:"chain_length,omitempty"`
	// NestDepth is the nesting depth of the deep-nesting shape (default
	// 1200, past governor.DefaultMaxDepth).
	NestDepth int `json:"nest_depth,omitempty"`
}

// Enabled reports whether stress generation is on.
func (s StressConfig) Enabled() bool { return s.Every > 0 }

// StressSeed reports whether the unit with the given seed should receive
// a stress program. The decision is keyed on the unit's seed — never on
// sequence position or worker identity — so sharded and single-process
// campaigns agree on which units are stressed.
func (c Config) StressSeed(seed int64) bool {
	e := c.Stress.Every
	if e <= 0 {
		return false
	}
	return uint64(seed)%uint64(e) == uint64(e)-1
}

// GenerateStress produces one deterministic pathological program chosen
// by the generator's seed. Three shapes rotate:
//
//   - lub storm: an if-expression joins values from two unrelated
//     supertype chain families, making the checker's least-upper-bound
//     scan both chains (polynomial steps — completes unmetered, exhausts
//     small fuel budgets);
//   - unify storm: a generic call whose argument types come from the
//     wrong chain family, sending inference's unifier into two-sided
//     supertype-chain backtracking (binomial(2n, n) interleavings — for
//     the default chain length no practical budget completes it, so it
//     deterministically exhausts any fuel limit, and without one it
//     stands in for a compiler hang);
//   - deep nesting: a generic call whose parameter type nests a
//     parameterized class past governor.DefaultMaxDepth, tripping the
//     recursion-depth guard in unification and substitution (linear
//     steps — completes unmetered).
//
// Every shape is deterministic for a fixed (seed, StressConfig); the
// programs use no randomness beyond shape selection.
func (g *Generator) GenerateStress() *ir.Program {
	cfg := g.cfg.Stress
	if cfg.ChainLength < 4 {
		cfg.ChainLength = 25
	}
	if cfg.NestDepth < 8 {
		cfg.NestDepth = 1200
	}
	g.reset()
	switch uint64(g.cfg.Seed) % 3 {
	case 0:
		g.stressLubStorm(cfg.ChainLength)
	case 1:
		g.stressUnifyStorm(cfg.ChainLength)
	default:
		g.stressDeepNest(cfg.NestDepth)
	}
	return g.prog
}

// stressChain declares the chain family F0<T>, F1<T> : F0<T>, ...,
// Fn<T> : Fn-1<T> and returns the tip class Fn.
func (g *Generator) stressChain(family string, levels int) *ir.ClassDecl {
	mk := func(i int) *ir.ClassDecl {
		name := fmt.Sprintf("%s%d", family, i)
		cls := &ir.ClassDecl{
			Name:       name,
			Open:       true,
			TypeParams: []*types.Parameter{types.NewParameter(name, "T")},
		}
		g.prog.Decls = append(g.prog.Decls, cls)
		g.classes = append(g.classes, cls)
		return cls
	}
	prev := mk(0)
	for i := 1; i <= levels; i++ {
		cls := mk(i)
		super := prev.Type().(*types.Constructor)
		cls.Super = &ir.SuperRef{Type: super.Apply(cls.TypeParams[0])}
		prev = cls
	}
	return prev
}

// tipOf returns the ground application Fn<Int> of a chain tip.
func (g *Generator) tipOf(cls *ir.ClassDecl) *types.App {
	return cls.Type().(*types.Constructor).Apply(g.b.Int)
}

// stressLubStorm: test() joins the two chain tips through if-expressions,
// each join forcing Lub over both (unrelated) supertype chains.
func (g *Generator) stressLubStorm(n int) {
	aTip := g.tipOf(g.stressChain("LA", n))
	bTip := g.tipOf(g.stressChain("LB", n))
	block := &ir.Block{}
	for i := 0; i < 8; i++ {
		block.Stmts = append(block.Stmts, &ir.VarDecl{
			Name:     fmt.Sprintf("j%d", i),
			DeclType: g.b.Any,
			Init: &ir.If{
				Cond: &ir.Const{Type: g.b.Boolean},
				Then: &ir.Const{Type: aTip},
				Else: &ir.Const{Type: bTip},
			},
		})
	}
	block.Value = &ir.Const{Type: g.b.Unit}
	g.prog.Decls = append(g.prog.Decls, &ir.FuncDecl{Name: "test", Ret: g.b.Unit, Body: block})
}

// stressUnifyStorm: clash<T>(a: UA_n<T>, b: UB_n<T>) called with the
// argument families swapped, so inferring T unifies across unrelated
// chains and backtracks through every climb interleaving.
func (g *Generator) stressUnifyStorm(n int) {
	aCls := g.stressChain("UA", n)
	bCls := g.stressChain("UB", n)
	tp := types.NewParameter("clash", "T")
	aOfT := aCls.Type().(*types.Constructor).Apply(tp)
	bOfT := bCls.Type().(*types.Constructor).Apply(tp)
	g.prog.Decls = append(g.prog.Decls, &ir.FuncDecl{
		Name:       "clash",
		TypeParams: []*types.Parameter{tp},
		Params: []*ir.ParamDecl{
			{Name: "a", Type: aOfT},
			{Name: "b", Type: bOfT},
		},
		Ret:  g.b.Int,
		Body: &ir.Const{Type: g.b.Int},
	})
	block := &ir.Block{
		Stmts: []ir.Node{&ir.VarDecl{
			Name:     "v",
			DeclType: g.b.Int,
			Init: &ir.Call{Name: "clash", Args: []ir.Expr{
				&ir.Const{Type: g.tipOf(bCls)}, // wrong family on purpose
				&ir.Const{Type: g.tipOf(aCls)},
			}},
		}},
		Value: &ir.Const{Type: g.b.Unit},
	}
	g.prog.Decls = append(g.prog.Decls, &ir.FuncDecl{Name: "test", Ret: g.b.Unit, Body: block})
}

// stressDeepNest: sink<T>(x: DBox^d<T>) called with DBox^d<Int>, so
// unification and substitution both recurse through d nesting levels.
func (g *Generator) stressDeepNest(depth int) {
	box := &ir.ClassDecl{
		Name:       "DBox",
		Open:       true,
		TypeParams: []*types.Parameter{types.NewParameter("DBox", "T")},
	}
	g.prog.Decls = append(g.prog.Decls, box)
	g.classes = append(g.classes, box)
	ctor := box.Type().(*types.Constructor)
	nest := func(core types.Type) types.Type {
		t := core
		for i := 0; i < depth; i++ {
			t = ctor.Apply(t)
		}
		return t
	}
	tp := types.NewParameter("sink", "T")
	g.prog.Decls = append(g.prog.Decls, &ir.FuncDecl{
		Name:       "sink",
		TypeParams: []*types.Parameter{tp},
		Params:     []*ir.ParamDecl{{Name: "x", Type: nest(tp)}},
		Ret:        g.b.Int,
		Body:       &ir.Const{Type: g.b.Int},
	})
	block := &ir.Block{
		Stmts: []ir.Node{&ir.VarDecl{
			Name:     "v",
			DeclType: g.b.Int,
			Init: &ir.Call{Name: "sink", Args: []ir.Expr{
				&ir.Const{Type: nest(g.b.Int)},
			}},
		}},
		Value: &ir.Const{Type: g.b.Unit},
	}
	g.prog.Decls = append(g.prog.Decls, &ir.FuncDecl{Name: "test", Ret: g.b.Unit, Body: block})
}
