// Package reduce implements greedy delta-debugging test-case reduction
// over IR programs (Section 4.1: UCTE and URB cases are easy to reduce
// from the diagnostics; crash cases "could benefit from an automated
// program reducer" — this is that reducer).
//
// Reduce repeatedly applies shrinking transformations — dropping top-level
// declarations, dropping class members, collapsing conditionals, deleting
// block statements, and replacing function bodies with constants — keeping
// each edit only if the caller's interestingness predicate still holds.
package reduce

import (
	"context"

	"repro/internal/harness"
	"repro/internal/ir"
)

// Interesting reports whether a candidate still exhibits the behaviour
// being reduced (e.g. "this compiler still rejects it" or "this seeded
// bug still fires").
type Interesting func(*ir.Program) bool

// Reduce shrinks p while keep(p) holds, returning the smallest program
// found. The input program is never modified.
func Reduce(p *ir.Program, keep Interesting) *ir.Program {
	cur := ir.CloneProgram(p)
	if !keep(cur) {
		return cur // nothing to preserve; do not loop
	}
	for round := 0; round < 32; round++ {
		shrunk := false
		if next, ok := dropTopLevel(cur, keep); ok {
			cur, shrunk = next, true
		}
		if next, ok := dropClassMembers(cur, keep); ok {
			cur, shrunk = next, true
		}
		if next, ok := simplifyBodies(cur, keep); ok {
			cur, shrunk = next, true
		}
		if !shrunk {
			break
		}
	}
	return cur
}

// ForBug shrinks p while target keeps triggering the seeded bug bugID.
// Every interestingness probe compiles through a harness sandbox built
// from opts, so a compiler that panics or hangs mid-reduction becomes a
// Crashed or TimedOut invocation — the candidate merely counts as
// uninteresting — instead of killing the reducer thousands of probes
// into a shrink.
func ForBug(p *ir.Program, target harness.Target, bugID string, opts harness.Options) *ir.Program {
	sandbox := harness.New(opts)
	probe := 0
	return Reduce(p, func(q *ir.Program) bool {
		probe++
		inv := sandbox.Compile(context.Background(), target, q, nil, harness.Key{Unit: -1, Input: probe})
		return inv.Outcome == harness.Completed && inv.Result.Triggers(bugID)
	})
}

// dropTopLevel removes top-level declarations one at a time.
func dropTopLevel(p *ir.Program, keep Interesting) (*ir.Program, bool) {
	changed := false
	cur := p
	for i := 0; i < len(cur.Decls); {
		candidate := ir.CloneProgram(cur)
		candidate.Decls = append(candidate.Decls[:i:i], candidate.Decls[i+1:]...)
		if keep(candidate) {
			cur = candidate
			changed = true
			continue
		}
		i++
	}
	return cur, changed
}

// dropClassMembers removes methods and fields from classes.
func dropClassMembers(p *ir.Program, keep Interesting) (*ir.Program, bool) {
	changed := false
	cur := p
	for ci := range cur.Decls {
		cls, ok := cur.Decls[ci].(*ir.ClassDecl)
		if !ok {
			continue
		}
		for mi := 0; mi < len(cls.Methods); {
			candidate := ir.CloneProgram(cur)
			ccls := candidate.Decls[ci].(*ir.ClassDecl)
			ccls.Methods = append(ccls.Methods[:mi:mi], ccls.Methods[mi+1:]...)
			if keep(candidate) {
				cur = candidate
				cls = cur.Decls[ci].(*ir.ClassDecl)
				changed = true
				continue
			}
			mi++
		}
	}
	return cur, changed
}

// simplifyBodies shrinks function bodies: replace whole bodies with
// constants, drop block statements, and collapse conditionals.
func simplifyBodies(p *ir.Program, keep Interesting) (*ir.Program, bool) {
	changed := false
	cur := p

	eachFunc := func(prog *ir.Program, visit func(f *ir.FuncDecl)) {
		for _, d := range prog.Decls {
			switch t := d.(type) {
			case *ir.FuncDecl:
				visit(t)
			case *ir.ClassDecl:
				for _, m := range t.Methods {
					visit(m)
				}
			}
		}
	}

	// Pass 1: constant bodies.
	funcIdx := 0
	for {
		candidate := ir.CloneProgram(cur)
		var target *ir.FuncDecl
		i := 0
		eachFunc(candidate, func(f *ir.FuncDecl) {
			if i == funcIdx {
				target = f
			}
			i++
		})
		if target == nil {
			break
		}
		funcIdx++
		if target.Body == nil || target.Ret == nil {
			continue
		}
		if _, isConst := target.Body.(*ir.Const); isConst {
			continue
		}
		target.Body = &ir.Const{Type: target.Ret}
		if keep(candidate) {
			cur = candidate
			changed = true
		}
	}

	// Pass 2: structural shrinking inside bodies (statement deletion,
	// conditional collapse), one edit at a time until no edit survives.
	for {
		candidate := ir.CloneProgram(cur)
		if !applyOneShrink(candidate) {
			break
		}
		if keep(candidate) {
			cur = candidate
			changed = true
			continue
		}
		// The first shrink broke interestingness; try deeper edits by
		// skipping: enumerate all shrinks and test each.
		edits := countShrinks(cur)
		applied := false
		for k := 1; k < edits; k++ {
			candidate := ir.CloneProgram(cur)
			if !applyNthShrink(candidate, k) {
				break
			}
			if keep(candidate) {
				cur = candidate
				changed = true
				applied = true
				break
			}
		}
		if !applied {
			break
		}
	}
	return cur, changed
}

// shrinkVisitor enumerates shrinking edit points in a deterministic order.
type shrinkVisitor struct {
	n      int // edits seen so far
	target int // the edit to apply; -1 counts only
	done   bool
}

func (v *shrinkVisitor) tryEdit(apply func()) {
	if v.done {
		return
	}
	if v.n == v.target {
		apply()
		v.done = true
	}
	v.n++
}

func countShrinks(p *ir.Program) int {
	v := &shrinkVisitor{target: -1}
	walkShrinks(p, v)
	return v.n
}

func applyOneShrink(p *ir.Program) bool { return applyNthShrink(p, 0) }

func applyNthShrink(p *ir.Program, n int) bool {
	v := &shrinkVisitor{target: n}
	walkShrinks(p, v)
	return v.done
}

// walkShrinks enumerates edits: delete a block statement, collapse an If
// to one branch, or replace a block with its value.
func walkShrinks(p *ir.Program, v *shrinkVisitor) {
	var rewrite func(e ir.Expr) ir.Expr
	rewrite = func(e ir.Expr) ir.Expr {
		switch t := e.(type) {
		case *ir.Block:
			for i := range t.Stmts {
				i := i
				v.tryEdit(func() {
					t.Stmts = append(t.Stmts[:i:i], t.Stmts[i+1:]...)
				})
				if v.done {
					return t
				}
			}
			for i, s := range t.Stmts {
				if ex, ok := s.(ir.Expr); ok {
					t.Stmts[i] = rewrite(ex)
				} else if vd, ok := s.(*ir.VarDecl); ok && vd.Init != nil {
					vd.Init = rewrite(vd.Init)
				}
				if v.done {
					return t
				}
			}
			if t.Value != nil {
				t.Value = rewrite(t.Value)
			}
			return t
		case *ir.If:
			result := ir.Expr(t)
			v.tryEdit(func() { result = t.Then })
			if v.done {
				return result
			}
			v.tryEdit(func() { result = t.Else })
			if v.done {
				return result
			}
			t.Cond = rewrite(t.Cond)
			if !v.done {
				t.Then = rewrite(t.Then)
			}
			if !v.done {
				t.Else = rewrite(t.Else)
			}
			return t
		case *ir.Call:
			for i := range t.Args {
				t.Args[i] = rewrite(t.Args[i])
				if v.done {
					break
				}
			}
			return t
		case *ir.New:
			for i := range t.Args {
				t.Args[i] = rewrite(t.Args[i])
				if v.done {
					break
				}
			}
			return t
		case *ir.Lambda:
			t.Body = rewrite(t.Body)
			return t
		case *ir.Cast:
			t.Expr = rewrite(t.Expr)
			return t
		case *ir.FieldAccess:
			t.Recv = rewrite(t.Recv)
			return t
		case *ir.BinaryOp:
			t.Left = rewrite(t.Left)
			if !v.done {
				t.Right = rewrite(t.Right)
			}
			return t
		}
		return e
	}

	for _, d := range p.Decls {
		switch t := d.(type) {
		case *ir.FuncDecl:
			if t.Body != nil {
				t.Body = rewrite(t.Body)
			}
		case *ir.ClassDecl:
			for _, m := range t.Methods {
				if m.Body != nil {
					m.Body = rewrite(m.Body)
				}
				if v.done {
					return
				}
			}
		}
		if v.done {
			return
		}
	}
}

// Size is the reduction metric: total AST nodes.
func Size(p *ir.Program) int { return ir.CountNodes(p) }
