// Package determinism checks that sim-reachable code cannot observe
// wall-clock time or unseeded randomness, and that map iteration order
// cannot leak into anything order-sensitive.
//
// The repo's headline guarantee — same seed, same transcript, same
// hash — holds only if every source of nondeterminism is funneled
// through the sim scheduler (the blessed clock) and
// internal/stats.Source (the blessed RNG). This analyzer turns that
// convention into a compile-time error:
//
//   - calls to time.Now, time.Since, time.Until and the wall-clock
//     timer constructors (time.After, time.Sleep, time.Tick,
//     time.NewTicker, time.NewTimer, time.AfterFunc) are forbidden;
//   - importing math/rand or math/rand/v2 is forbidden outside
//     internal/stats, whose Source wraps a seeded PCG;
//   - a `range` over a map whose loop body appends to a slice declared
//     outside the loop is flagged unless the function later sorts that
//     slice, and so is a loop body that feeds values straight into
//     scheduling, sending or hashing — map order would become program
//     behavior in both cases.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand and order-sensitive map iteration " +
		"in sim-reachable packages; the sim scheduler is the only clock and " +
		"internal/stats.Source the only RNG",
	Run: run,
}

// wallClock lists the time package's nondeterministic entry points.
// Pure arithmetic (time.Duration, time.Unix construction) stays legal.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Sleep": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) {
	if !analysis.SimScope(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		checkImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	if analysis.RandExempt(pass.Pkg.Path()) {
		return
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "import of %s in sim-reachable package: derive a seeded stream from internal/stats.Source instead", path)
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if analysis.PkgPathOf(fn) == "time" && wallClock[fn.Name()] {
		pass.Reportf(call.Pos(), "wall-clock time.%s in sim-reachable package: take the current time and timers from the sim scheduler (sim.Engine)", fn.Name())
	}
}

// checkMapRanges walks a function body looking for `range` statements
// over maps whose iteration order can become observable behavior.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rng)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	// Case 1: the loop appends to a slice declared outside the loop and
	// the function never sorts it afterwards — the slice's element
	// order is then the map's iteration order.
	for _, sliceObj := range outerAppends(pass, rng) {
		if !sortedAfter(pass, fnBody, rng.End(), sliceObj) {
			pass.Reportf(rng.Pos(), "map iteration appends to %s without a deterministic sort: map order becomes slice order", sliceObj.Name())
		}
	}
	// Case 2: the loop body feeds values directly into scheduling,
	// sending or hashing — sinks whose call order is behavior.
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if sink := orderSink(pass, call, fn); sink != "" {
			pass.Reportf(call.Pos(), "map iteration drives %s: call order would follow map order; collect and sort the keys first", sink)
		}
		return true
	})
}

// outerAppends returns the distinct slice variables declared outside
// rng that the loop body grows with append.
func outerAppends(pass *analysis.Pass, rng *ast.RangeStmt) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(asg.Lhs) <= i {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				continue
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				continue // shadowed: not the builtin append
			}
			lhs, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.TypesInfo.ObjectOf(lhs).(*types.Var)
			if !ok || seen[v] {
				continue
			}
			// Declared outside the range statement?
			if v.Pos() < rng.Pos() || v.Pos() > rng.End() {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// sortedAfter reports whether the function body contains, after pos, a
// sort.* / slices.Sort* call that references v.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, pos token.Pos, v *types.Var) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		pkg := analysis.PkgPathOf(fn)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// schedulerEntry lists the scheduler and transport entry points, by
// method name (sim.Engine, netsim.Transport, live.Engine and the
// kv.Transport seam share them). Every one consumes an engine sequence
// number, the tie-breaker among equal times, so the order of the calls is
// the order of the events.
var schedulerEntry = map[string]bool{
	"Schedule": true, "ScheduleAt": true, "ScheduleCall": true, "ScheduleStopCall": true,
	"Send": true, "SendLocal": true,
}

// orderSink classifies callees whose invocation order is observable:
// scheduler and network entry points, and hash writes. Hash writes are
// recognized by the receiver expression's type (hash.Hash et al. embed
// Write from io.Writer, so the method's own package would say "io").
func orderSink(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) string {
	name := fn.Name()
	if schedulerEntry[name] {
		return fn.FullName()
	}
	if name == "Write" || name == "Sum" {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if named := namedOf(pass.TypesInfo.TypeOf(sel.X)); named != nil && named.Obj().Pkg() != nil {
			p := named.Obj().Pkg().Path()
			if p == "hash" || strings.HasPrefix(p, "hash/") || strings.HasPrefix(p, "crypto/") {
				return fn.FullName()
			}
		}
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
