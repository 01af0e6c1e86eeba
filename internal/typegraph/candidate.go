package typegraph

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// CandidateKind enumerates the program points where the type-erasure
// mutation may remove type information (the four cases of Section 3.4.1)
// and the type-overwriting mutation may replace it (Section 3.4.2).
type CandidateKind int

const (
	// VarDeclType: a variable's declared type (var x: T = e → var x = e).
	VarDeclType CandidateKind = iota
	// NewTypeArgs: explicit constructor type arguments (new A<T>(e) →
	// new A<>(e)).
	NewTypeArgs
	// CallTypeArgs: explicit method type arguments (e.m<T>(x) → e.m(x)).
	CallTypeArgs
	// ReturnType: a method's declared return type (fun m(): T = e →
	// fun m() = e).
	ReturnType
)

func (k CandidateKind) String() string {
	switch k {
	case VarDeclType:
		return "var-decl-type"
	case NewTypeArgs:
		return "new-type-args"
	case CallTypeArgs:
		return "call-type-args"
	default:
		return "return-type"
	}
}

// Candidate is an erasable or overwritable program point, carrying both
// its type-graph footprint and the AST back-pointers the mutators rewrite.
type Candidate struct {
	Kind CandidateKind
	// NodeID is the candidate's principal graph node (a declaration node
	// for variables and returns, the application occurrence for explicit
	// type arguments).
	NodeID NodeID
	// ParamNodeIDs are the type-parameter occurrence nodes belonging to
	// the candidate's annotation: the annotation's own parameters in
	// constructor order, then those of its nested applications in
	// position order.
	ParamNodeIDs []NodeID
	// EraseSet lists the nodes whose outgoing decl edges the erasure of
	// this candidate removes (Definition 3.4).
	EraseSet []NodeID
	// VanishNodes are nodes that cease to exist in the mutated program
	// (the parameter occurrences of a removed annotation). They are
	// exempt from the preservation check: an erased `: A<Long>` has no
	// A.T left to infer, whereas an erased instantiation `A<>(...)`
	// still does.
	VanishNodes []NodeID

	// AST back-pointers; exactly the one matching Kind is set.
	Var      *ir.VarDecl
	NewExpr  *ir.New
	CallExpr *ir.Call
	Fun      *ir.FuncDecl
}

// Preserves implements Definition 3.5 generalized as the paper's remark
// requires ("removal does not affect the typing of declarations and type
// parameters"): under the erasure of the given candidates, every
// declaration node and every type-parameter occurrence in the graph must
// keep its originally inferred type. This global condition subsumes the
// per-node Definition 3.5/3.6 and prevents an erased annotation from
// silently starving a non-candidate inference site. Only nodes that can
// reach an erased or vanished node are re-inferred; every other node's
// inference walk is the baseline's.
func Preserves(g *Graph, cands ...*Candidate) bool {
	ix := g.dense()
	ix.stamp(cands, true)
	_, ok := ix.check()
	return ok
}

// RelevanceNodes returns the graph nodes type relevance (and hence TOM)
// is evaluated on: the declaration node for variables and returns, and the
// parameter occurrences for explicit type arguments (the shadowed nodes of
// Figure 6).
func (c *Candidate) RelevanceNodes() []NodeID {
	switch c.Kind {
	case VarDeclType, ReturnType:
		return []NodeID{c.NodeID}
	default:
		return c.ParamNodeIDs
	}
}

// RelevantTo implements Definition 3.7: node n (a relevance node of
// candidate c) is relevant to type t when, after erasing n, the inferred
// type infer(erasure(G, n), n) is a subtype of t. TOM overwrites a node
// with a type it is NOT relevant to, which guarantees a type error.
func RelevantTo(g *Graph, c *Candidate, node NodeID, t types.Type) bool {
	inf := g.Infer(node, c)
	if _, isBottom := inf.(types.Bottom); isBottom {
		// Nothing inferable: any overwrite may be consistent; treat as
		// relevant (unsafe to overwrite blindly).
		return true
	}
	return types.IsSubtype(inf, t)
}
