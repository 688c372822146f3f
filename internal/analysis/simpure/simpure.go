// Package simpure checks the sim/live split: deterministic simulation
// packages must not spawn goroutines, perform real network or file
// I/O, or use sync primitives.
//
// Under the discrete-event engine there is exactly one goroutine;
// concurrency is *modeled* by scheduling events, never by the runtime.
// A stray `go` statement or mutex doesn't just risk a data race — it
// silently breaks replay, because goroutine interleaving is invisible
// to the transcript. That includes sync.Pool: the message boxes a
// single-threaded cluster recycles are its own free lists.
// internal/live and cmd/ are exempt by scope: wall-clock concurrency
// is their whole job.
package simpure

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "simpure",
	Doc: "forbid go statements, real net/os I/O and sync primitives " +
		"in deterministic sim packages; sim concurrency must go through the scheduler",
	Run: run,
}

// osIO lists the os entry points that touch the real machine. Reading
// configuration (os.Getenv) and process identity stay legal; files,
// directories and processes do not.
var osIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"Rename": true, "Stat": true, "Lstat": true, "Chdir": true,
	"Truncate": true, "Link": true, "Symlink": true, "Pipe": true,
	"StartProcess": true,
}

func run(pass *analysis.Pass) {
	if !analysis.SimScope(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		checkImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in deterministic sim package: model concurrency as scheduler events (sim.Engine.Schedule)")
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.Ident:
				checkSyncUse(pass, n)
			}
			return true
		})
	}
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "net" || strings.HasPrefix(path, "net/") || path == "os/exec" {
			pass.Reportf(imp.Pos(), "import of %s in deterministic sim package: real I/O belongs in internal/live or cmd/", path)
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if analysis.PkgPathOf(fn) == "os" && osIO[fn.Name()] {
		pass.Reportf(call.Pos(), "os.%s in deterministic sim package: real file I/O belongs in internal/live or behind a live-only configuration", fn.Name())
	}
}

// checkSyncUse flags any reference into sync or sync/atomic.
func checkSyncUse(pass *analysis.Pass, id *ast.Ident) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	path := obj.Pkg().Path()
	if path != "sync" && path != "sync/atomic" {
		return
	}
	// Skip the package-qualifier ident itself ("sync" in sync.Mutex);
	// the selected name carries the report.
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return
	}
	pass.Reportf(id.Pos(), "%s.%s in deterministic sim package: the single-goroutine sim needs no locking", path, obj.Name())
}
