package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Scope rules. The repo's invariants are not uniform: the live engine
// and the command-line drivers are *supposed* to touch wall clocks,
// goroutines and real files. Scope is decided purely on import-path
// segments so the same rules govern the real module and the
// analysistest fixtures.

func hasSegment(path string, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// SegmentIn reports whether path contains any of the given segments.
func SegmentIn(path string, segs ...string) bool {
	for _, seg := range segs {
		if hasSegment(path, seg) {
			return true
		}
	}
	return false
}

// SimScope reports whether the package at path is held to the
// deterministic-simulation invariants (determinism, simpure).
// Exempt: cmd/ and examples/ (drivers), live packages (wall-clock by
// design), server (the TCP front end: per-connection goroutines and
// real sockets by design), testutil (test-process plumbing), and the
// analysis suite itself (it shells out to the go tool). The wire
// package is *not* exempt: codecs are pure byte manipulation and stay
// under the determinism rules.
func SimScope(path string) bool {
	for _, seg := range []string{"cmd", "examples", "live", "server", "testutil", "analysis", "testdata"} {
		if hasSegment(path, seg) {
			return false
		}
	}
	return true
}

// RandExempt reports whether path hosts the blessed RNG: math/rand may
// only be imported by the stats package (internal/stats/rng.go wraps it
// behind deterministic seeded streams).
func RandExempt(path string) bool { return hasSegment(path, "stats") }

// ErrflowScope reports whether discarded storage-path errors are
// flagged in this package. Live is *included*: the file-backed WAL
// runs there and its recovery semantics hinge on error propagation.
// Drivers and the analyzer suite are exempt.
func ErrflowScope(path string) bool {
	for _, seg := range []string{"cmd", "examples", "testutil", "analysis", "testdata"} {
		if hasSegment(path, seg) {
			return false
		}
	}
	return true
}

// Type-resolution helpers shared by the analyzers.

// Callee resolves the static callee of a call, whether a package
// function, a method, or a method value; nil for dynamic calls through
// function-typed variables and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.F
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// PkgPathOf returns the defining package path of fn, or "".
func PkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// IsSyncPool reports whether t is sync.Pool or *sync.Pool.
func IsSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// ResultError reports whether a call's type carries an error: the index
// of the error in the result tuple (or 0 for a bare error result) and
// whether one exists.
func ResultError(info *types.Info, call *ast.CallExpr) (int, int, bool) {
	tv, ok := info.Types[call]
	if !ok {
		return 0, 0, false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i, t.Len(), true
			}
		}
		return 0, t.Len(), false
	default:
		if isErrorType(tv.Type) {
			return 0, 1, true
		}
	}
	return 0, 0, false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
