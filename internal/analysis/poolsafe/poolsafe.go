// Package poolsafe checks the pooled message lifecycle the hot path
// depends on: a pooled value must be released exactly once, never used
// after release, and never retained past its delivery.
//
// PR2 made every per-replica message a pooled box: senders take a box,
// receivers copy the value out and return the box before dispatching.
// The boxes, and the coordinator contexts, recycle through free lists a
// cluster owns (slices of pointers, popped to acquire and pushed to
// release).
// Violations are memory-safety bugs of the worst kind — a box reused
// while an alias is still live corrupts an unrelated in-flight message,
// and the symptom appears far from the cause. The analyzer is
// intraprocedural and flow-aware within each function:
//
//   - use-after-release: any read of a variable after it was returned
//     to its pool on some path;
//   - double-release: a second release of the same variable, including
//     a release of a loop-outer variable on every iteration;
//   - escape: a pooled value captured by a `go` statement, or stored
//     into a field/map/global and *then* released by the same function
//     (the retained alias outlives the release).
//
// Release wrappers (a function that resets its parameter and pushes it
// onto a free list) and acquire wrappers (a function returning a value
// it popped off a free list) are discovered per package, not hard-coded.
// Methods of a generic wrapper type count too — the kv message boxes are
// box[T] with put (acquire) and take (release) — and because take
// returns the message it copied out, a release is recognized wherever
// the call stands: as a statement, on the right of an assignment, or as
// an argument of another call.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc: "flag use-after-release, double-release and escapes of pooled values (free lists): " +
		"a pooled box must be released exactly once and never retained past its delivery",
	Run: run,
}

func run(pass *analysis.Pass) {
	w := wrappers(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				newChecker(pass, w).checkFunc(fd)
			}
		}
	}
}

// wrapperSet records the package's pool helper functions.
type wrapperSet struct {
	acquire map[*types.Func]bool // returns a value popped off a free list
	release map[*types.Func]int  // param index the function pushes back
}

func wrappers(pass *analysis.Pass) *wrapperSet {
	w := &wrapperSet{acquire: map[*types.Func]bool{}, release: map[*types.Func]int{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			// Acquire wrapper: returns a pointer it popped off a free list
			// of that pointer type — the kv box[T].put and the cluster's
			// get*Ctx helpers.
			if sig.Results().Len() >= 1 {
				if ptr, ok := sig.Results().At(0).Type().(*types.Pointer); ok && popsFreeList(pass, fd.Body, ptr) {
					w.acquire[fn] = true
				}
			}
			// Release wrapper: resets one of its parameters and pushes it
			// onto a free list — box[T].take, put*Ctx.
			if idx, ok := pushesParam(pass, fd, sig); ok {
				w.release[fn] = idx
			}
		}
	}
	return w
}

// callee resolves a call's static callee to its generic origin: a call
// of box[replicaRead].take is a call of the box[T].take the wrapper maps
// are keyed on (for a non-generic function Origin is the function).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := analysis.Callee(info, call); fn != nil {
		return fn.Origin()
	}
	return nil
}

// A free list is a slice of pointers whose top is the next value handed
// out: popped with `p = l[n]; l = l[:n]`, pushed with `l = append(l, p)`.
func isFreeList(t types.Type, ptr types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && types.Identical(s.Elem(), ptr)
}

// popsFreeList reports whether body pops a free list of ptr: it reads an
// element of one and assigns one a shorter slice of itself.
func popsFreeList(pass *analysis.Pass, body *ast.BlockStmt, ptr types.Type) bool {
	read, shrunk := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			read = read || isFreeList(pass.TypesInfo.TypeOf(n.X), ptr)
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if s, ok := ast.Unparen(rhs).(*ast.SliceExpr); ok && isFreeList(pass.TypesInfo.TypeOf(s.X), ptr) {
					shrunk = true
				}
			}
		}
		return !(read && shrunk)
	})
	return read && shrunk
}

// pushesParam finds a pointer parameter the function recycles: it
// overwrites the pointee (`*p = ...`, the reset that keeps a waiting
// value from pinning anything) and appends p to a free list. Both are
// needed: appending alone is how any slice of pointers grows, an
// ownership transfer, not a release.
func pushesParam(pass *analysis.Pass, fd *ast.FuncDecl, sig *types.Signature) (int, bool) {
	reset := map[types.Object]bool{}
	pushed := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
					if id, ok := ast.Unparen(star.X).(*ast.Ident); ok {
						reset[pass.TypesInfo.ObjectOf(id)] = true
					}
				}
			}
		case *ast.CallExpr:
			fun, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) != 2 {
				return true
			}
			if _, builtin := pass.TypesInfo.Uses[fun].(*types.Builtin); !builtin || fun.Name != "append" {
				return true
			}
			if id, ok := ast.Unparen(n.Args[1]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isFreeList(pass.TypesInfo.TypeOf(n.Args[0]), obj.Type()) {
					pushed[obj] = true
				}
			}
		}
		return true
	})
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, ptr := p.Type().(*types.Pointer); ptr && reset[p] && pushed[p] {
			return i, true
		}
	}
	return -1, false
}

// varState tracks one variable through the linear scan.
type varState struct {
	acquired   bool      // value came from a pool in this function
	releasedAt token.Pos // nonzero once returned to its pool on some path
	deferred   bool      // a deferred release is pending
	storedAt   token.Pos // stored into a field/map/global while live
	storedIn   string
}

type checker struct {
	pass     *analysis.Pass
	w        *wrapperSet
	state    map[*types.Var]*varState
	reported map[token.Pos]bool
}

func newChecker(pass *analysis.Pass, w *wrapperSet) *checker {
	return &checker{pass: pass, w: w, state: map[*types.Var]*varState{}, reported: map[token.Pos]bool{}}
}

func (c *checker) get(v *types.Var) *varState {
	s := c.state[v]
	if s == nil {
		s = &varState{}
		c.state[v] = s
	}
	return s
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.reported[pos] {
		c.reported[pos] = true
		c.pass.Reportf(pos, format, args...)
	}
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.scanStmts(fd.Body.List)
}

// clone snapshots the state for branch-local analysis.
func (c *checker) clone() map[*types.Var]*varState {
	m := make(map[*types.Var]*varState, len(c.state))
	for k, v := range c.state {
		cp := *v
		m[k] = &cp
	}
	return m
}

// merge folds a non-terminating branch's state back: releases observed
// on any live path become may-releases on the main path.
func (c *checker) merge(branch map[*types.Var]*varState) {
	for v, bs := range branch {
		s := c.get(v)
		if bs.releasedAt != 0 && s.releasedAt == 0 {
			s.releasedAt = bs.releasedAt
		}
		s.deferred = s.deferred || bs.deferred
		s.acquired = s.acquired || bs.acquired
		if bs.storedAt != 0 && s.storedAt == 0 {
			s.storedAt, s.storedIn = bs.storedAt, bs.storedIn
		}
	}
}

func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (c *checker) scanStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.scanStmt(s)
	}
}

func (c *checker) branch(stmts []ast.Stmt) {
	saved := c.state
	c.state = c.clone()
	c.scanStmts(stmts)
	branchState := c.state
	c.state = saved
	if !terminates(stmts) {
		c.merge(branchState)
	}
}

func (c *checker) scanStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.scanStmts(s.List)
	case *ast.ExprStmt:
		c.checkUses(s.X)
	case *ast.DeferStmt:
		if v, idx, ok := c.releaseTarget(s.Call); ok {
			c.checkOperands(s.Call, idx)
			st := c.get(v)
			if st.releasedAt != 0 || st.deferred {
				c.reportf(s.Call.Pos(), "%s is returned to its pool twice (deferred release duplicates an earlier one)", v.Name())
			}
			st.deferred = true
			return
		}
		c.checkUses(s.Call)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.checkUses(rhs)
		}
		for i, lhs := range s.Lhs {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if v, ok := c.pass.TypesInfo.ObjectOf(l).(*types.Var); ok {
					st := c.get(v)
					st.releasedAt, st.deferred, st.storedAt = 0, false, 0
					st.acquired = len(s.Rhs) > i && c.isAcquire(s.Rhs[i])
				}
			case *ast.SelectorExpr, *ast.IndexExpr:
				c.checkUses(l)
				if len(s.Rhs) > i {
					c.recordStore(l, s.Rhs[i])
				}
			default:
				c.checkUses(l)
			}
		}
	case *ast.GoStmt:
		c.checkGoEscape(s)
	case *ast.IfStmt:
		if s.Init != nil {
			c.scanStmt(s.Init)
		}
		c.checkUses(s.Cond)
		c.branch(s.Body.List)
		if s.Else != nil {
			c.branch([]ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.scanStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkUses(s.Cond)
		}
		c.loopBody(s.Body, s.Pos(), s.End())
	case *ast.RangeStmt:
		c.checkUses(s.X)
		c.loopBody(s.Body, s.Pos(), s.End())
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.scanStmt(s.Init)
		}
		if s.Tag != nil {
			c.checkUses(s.Tag)
		}
		for _, cc := range s.Body.List {
			c.branch(cc.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.scanStmt(s.Init)
		}
		for _, cc := range s.Body.List {
			c.branch(cc.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			c.branch(cc.(*ast.CommClause).Body)
		}
	case *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt, *ast.LabeledStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.checkUses(e)
				return false
			}
			return true
		})
	default:
		// Branch/empty statements carry no expressions to check.
	}
}

// loopBody analyzes a loop body and flags releases of loop-outer
// variables that are not reassigned first: such a release runs on every
// iteration but the box was taken once.
func (c *checker) loopBody(body *ast.BlockStmt, loopPos, loopEnd token.Pos) {
	saved := c.state
	c.state = c.clone()
	assigned := map[*types.Var]bool{}
	for _, st := range body.List {
		c.noteAssigned(st, assigned)
		for _, r := range c.releasesOf(st) {
			if v := r.v; (v.Pos() < loopPos || v.Pos() > loopEnd) && !assigned[v] {
				c.reportf(r.pos, "%s is returned to its pool inside a loop without being reacquired: released once per iteration", v.Name())
			}
		}
		c.scanStmt(st)
	}
	branchState := c.state
	c.state = saved
	c.merge(branchState)
}

// noteAssigned records plain assignments so a reacquired variable
// (m := xs.put(...) inside the loop) is not flagged by loopBody.
func (c *checker) noteAssigned(s ast.Stmt, assigned map[*types.Var]bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		if asg, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range asg.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
						assigned[v] = true
					}
				}
			}
		}
		return true
	})
}

// releasesOf lists the release calls a statement at the top level of a
// loop body makes each time it runs: the statement itself, the right
// side of an assignment (v := box.take(m)), or an argument of another
// call (handle(box.take(m))). Closure bodies run later, if at all.
func (c *checker) releasesOf(s ast.Stmt) (out []releaseSite) {
	var exprs []ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		exprs = []ast.Expr{s.X}
	case *ast.AssignStmt:
		exprs = s.Rhs
	}
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, lit := n.(*ast.FuncLit); lit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if v, _, ok := c.releaseTarget(call); ok {
					out = append(out, releaseSite{v, call.Pos()})
				}
			}
			return true
		})
	}
	return out
}

type releaseSite struct {
	v   *types.Var
	pos token.Pos
}

// releaseTarget recognizes releaseWrapper(v) calls, returning the
// released variable and its argument position.
func (c *checker) releaseTarget(call *ast.CallExpr) (*types.Var, int, bool) {
	fn := callee(c.pass.TypesInfo, call)
	if fn == nil {
		return nil, 0, false
	}
	argIdx, ok := c.w.release[fn]
	if !ok || argIdx >= len(call.Args) {
		return nil, 0, false
	}
	id, ok := ast.Unparen(call.Args[argIdx]).(*ast.Ident)
	if !ok {
		return nil, 0, false
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	return v, argIdx, ok
}

// checkOperands checks everything a release call evaluates except the
// released argument itself: the callee expression and the other
// arguments are ordinary uses.
func (c *checker) checkOperands(call *ast.CallExpr, released int) {
	c.checkUses(call.Fun)
	for i, a := range call.Args {
		if i != released {
			c.checkUses(a)
		}
	}
}

func (c *checker) release(v *types.Var, pos token.Pos) {
	st := c.get(v)
	if st.releasedAt != 0 || st.deferred {
		c.reportf(pos, "%s is returned to its pool twice", v.Name())
		return
	}
	if st.storedAt != 0 {
		c.reportf(pos, "%s was stored in %s and is now returned to its pool: the retained reference outlives the release", v.Name(), st.storedIn)
	}
	st.releasedAt = pos
}

// isAcquire reports whether e produces a pooled value: an
// acquire-wrapper call.
func (c *checker) isAcquire(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := callee(c.pass.TypesInfo, call)
	return fn != nil && c.w.acquire[fn]
}

// checkUses walks e in evaluation order, reporting reads of released
// variables and recording the releases e itself performs — a release
// call is an expression like any other and may stand anywhere in e.
func (c *checker) checkUses(e ast.Expr) {
	if e != nil {
		c.walk(e, true)
	}
}

// walk is checkUses over any node; releases is unset inside closure
// bodies, which run later (if at all): their reads are checked, their
// releases are not the enclosing statement's.
func (c *checker) walk(root ast.Node, releases bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walk(n.Body, false)
			return false
		case *ast.CallExpr:
			if !releases {
				return true
			}
			if v, idx, ok := c.releaseTarget(n); ok {
				c.checkOperands(n, idx)
				c.release(v, n.Pos())
				return false
			}
		case *ast.Ident:
			if v, ok := c.pass.TypesInfo.ObjectOf(n).(*types.Var); ok {
				if st := c.state[v]; st != nil && st.releasedAt != 0 {
					c.reportf(n.Pos(), "use of %s after it was returned to its pool at line %d", v.Name(), c.pass.Fset.Position(st.releasedAt).Line)
				}
			}
		}
		return true
	})
}

// recordStore notes a pooled value stored into a field, map entry or
// global; the store only becomes a finding if the same function later
// releases the value (see release).
func (c *checker) recordStore(lhs ast.Expr, rhs ast.Expr) {
	id, ok := ast.Unparen(rhs).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	st := c.state[v]
	if st == nil || !st.acquired || st.releasedAt != 0 {
		return
	}
	st.storedAt = lhs.Pos()
	st.storedIn = exprString(lhs)
}

// checkGoEscape flags pooled values captured by a goroutine.
func (c *checker) checkGoEscape(s *ast.GoStmt) {
	ast.Inspect(s.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok {
			return true
		}
		if st := c.state[v]; st != nil && st.acquired {
			c.reportf(id.Pos(), "pooled %s captured by a goroutine: pooled values must not outlive their delivery", v.Name())
		}
		return true
	})
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return "expression"
}
