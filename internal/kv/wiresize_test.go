package kv

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"strings"
	"testing"
)

var regenSizes = flag.Bool("regen", false, "rewrite wiresize.go from the wire field lists instead of checking it")

// TestMessageSizeGenerated regenerates wiresize.go in memory from the
// wire field lists (messages.go) and the codec (wiremsg.go) and fails on
// any byte of difference, so no size is ever written by hand. After a
// change to a field list or to the codec's helpers, rewrite the file
// with
//
//	go test -run TestMessageSizeGenerated ./internal/kv -regen
func TestMessageSizeGenerated(t *testing.T) {
	src, err := generateSizes("messages.go", "wiremsg.go")
	if err != nil {
		t.Fatal(err)
	}
	if *regenSizes {
		if err := os.WriteFile("wiresize.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have, err := os.ReadFile("wiresize.go")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(have, src) {
		return
	}
	got, want := strings.Split(string(have), "\n"), strings.Split(string(src), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("wiresize.go is stale from line %d:\n have %q\n want %q\nregenerate it with -regen", i+1, g, w)
		}
	}
}

// primitiveSizes are the encoded lengths of the codec's primitives, each
// of the value its pointer argument points at. Every other codec method
// a field list calls is expanded from its own body, so these six are the
// generator's whole knowledge of the wire format; the int conversions
// re-type a value whose pointer the field list converted.
var primitiveSizes = map[string]func(v string) string{
	"uvarint": func(v string) string { return "wire.UvarintLen(uint64(" + v + "))" },
	"varint":  func(v string) string { return "wire.VarintLen(int64(" + v + "))" },
	"int":     func(v string) string { return "wire.VarintLen(int64(" + v + "))" },
	"flag":    func(string) string { return "1" },
	"bytes":   func(v string) string { return "wire.UvarintLen(uint64(len(" + v + "))) + len(" + v + ")" },
	"str":     func(v string) string { return "wire.UvarintLen(uint64(len(" + v + "))) + len(" + v + ")" },
}

// sizeStep is one piece of a generated size method: a sum of terms, or a
// loop over a list whose body is again steps.
type sizeStep struct {
	terms []string // a sum: the non-constant terms, in field order
	konst int      // and its constant part
	list  string   // a loop: the list ranged over (terms unused)
	index string   // its index variable
	body  []sizeStep
}

// sizeGen expands field lists into size steps.
type sizeGen struct {
	fset    *token.FileSet
	helpers map[string]*ast.FuncDecl // the codec's methods
	wires   map[string]*ast.FuncDecl // each kind's wire method, by type name
}

// generateSizes parses the field lists and the codec and returns the
// formatted source of wiresize.go: one size method per kind of the
// codec's encode switch (wireCodec.message) and MessageSize's dispatch
// over them, in that switch's order.
func generateSizes(files ...string) ([]byte, error) {
	g := &sizeGen{fset: token.NewFileSet(), helpers: map[string]*ast.FuncDecl{}, wires: map[string]*ast.FuncDecl{}}
	for _, name := range files {
		f, err := parser.ParseFile(g.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := strings.TrimPrefix(g.expr(fd.Recv.List[0].Type), "*")
			switch {
			case recv == "wireCodec":
				g.helpers[fd.Name.Name] = fd
			case fd.Name.Name == "wire":
				g.wires[recv] = fd
			}
		}
	}
	msg := g.helpers["message"]
	if msg == nil || len(msg.Body.List) == 0 {
		return nil, fmt.Errorf("no wireCodec.message encode switch")
	}
	sw, ok := msg.Body.List[0].(*ast.TypeSwitchStmt)
	if !ok {
		return nil, fmt.Errorf("wireCodec.message does not open with its type switch")
	}

	var methods, cases bytes.Buffer
	for _, s := range sw.Body.List {
		cc := s.(*ast.CaseClause)
		if cc.List == nil {
			continue // default: no wire form
		}
		kind := g.expr(cc.List[0])
		name := strings.TrimPrefix(kind, "*")
		steps, err := g.kind(name, cc.Body)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", kind, err)
		}
		fmt.Fprintf(&methods, "\nfunc (m *%s) size(from, to netsim.NodeID) int {\n%s}\n", name, renderSteps(steps))
		fmt.Fprintf(&cases, "\tcase %s:\n\t\treturn m.size(from, to)\n", kind)
	}

	var out bytes.Buffer
	out.WriteString(`// Code generated by TestMessageSizeGenerated (wiresize_test.go) from the wire field lists; DO NOT EDIT.

package kv

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

// MessageSize is the bytes a message puts on the wire, which the
// transport meters: for a kind with a wire form, the length of the frame
// MarshalMessage would write, computed by the kind's size method below
// (straight-line arithmetic over the same field list, nothing encoded,
// checksummed or allocated), and for any other kind its declaredSize.
// It leaves payload untouched.
func (*boxes) MessageSize(from, to netsim.NodeID, payload any) int {
	switch m := payload.(type) {
`)
	out.Write(cases.Bytes())
	out.WriteString("\t}\n\treturn declaredSize(payload)\n}\n")
	out.Write(methods.Bytes())
	return format.Source(out.Bytes())
}

// kind expands one case of the encode switch, m.wire(c.open(K, from,
// to)): the frame header and addresses open walks, then the kind's field
// list.
func (g *sizeGen) kind(name string, body []ast.Stmt) ([]sizeStep, error) {
	var call *ast.CallExpr
	if len(body) == 1 {
		if es, ok := body[0].(*ast.ExprStmt); ok {
			call, _ = es.X.(*ast.CallExpr)
		}
	}
	if call == nil || len(call.Args) != 1 || g.expr(call.Fun) != "m.wire" {
		return nil, fmt.Errorf("case is not m.wire(c.open(...))")
	}
	open, ok := call.Args[0].(*ast.CallExpr)
	if !ok || g.expr(open.Fun) != "c.open" {
		return nil, fmt.Errorf("case is not m.wire(c.open(...))")
	}
	steps, err := g.call("open", open.Args, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	wire := g.wires[name]
	if wire == nil {
		return nil, fmt.Errorf("no wire method")
	}
	return g.walk(steps, wire.Body.List, nil, 0)
}

// call expands a codec method called with args: a primitive becomes its
// size term, any other method its body, with each parameter bound to
// what its argument stands for — for a pointer parameter the value it
// points at, otherwise the value itself.
func (g *sizeGen) call(name string, args []ast.Expr, env map[string]string, depth int, steps []sizeStep) ([]sizeStep, error) {
	if size, ok := primitiveSizes[name]; ok {
		return addTerm(steps, size(g.target(args[0], env))), nil
	}
	fd := g.helpers[name]
	if fd == nil {
		return nil, fmt.Errorf("codec method %s is neither a primitive nor defined", name)
	}
	inner := map[string]string{}
	i := 0
	for _, field := range fd.Type.Params.List {
		_, ptr := field.Type.(*ast.StarExpr)
		for _, pn := range field.Names {
			if ptr {
				inner[pn.Name] = g.target(args[i], env)
			} else {
				inner[pn.Name] = g.value(args[i], env)
			}
			i++
		}
	}
	return g.walk(steps, fd.Body.List, inner, depth)
}

// walk appends the size steps of a field-list body. It knows the
// shapes field lists are written in: a codec call per field, a range
// over wireList for a list, decode-only checks (if c.dec ...), the
// frame opening and the closing return; anything else is an error, so a
// field list the generator cannot read fails loudly instead of being
// sized short.
func (g *sizeGen) walk(steps []sizeStep, stmts []ast.Stmt, env map[string]string, depth int) ([]sizeStep, error) {
	var err error
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ReturnStmt:
		case *ast.IfStmt:
			if !decodeOnly(s.Cond) {
				return nil, fmt.Errorf("if %s: only decode checks may branch", g.expr(s.Cond))
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 || !strings.HasPrefix(g.expr(s.Rhs[0]), "wire.BeginFrame(") {
				return nil, fmt.Errorf("%s: not a field", g.expr(s.Rhs[0]))
			}
			steps = addTerm(steps, "wire.FrameOverhead")
		case *ast.ExprStmt:
			call, _ := s.X.(*ast.CallExpr)
			var sel *ast.SelectorExpr
			if call != nil {
				sel, _ = call.Fun.(*ast.SelectorExpr)
			}
			if sel == nil || g.expr(sel.X) != "c" {
				return nil, fmt.Errorf("%s: not a codec call", g.expr(s.X))
			}
			if steps, err = g.call(sel.Sel.Name, call.Args, env, depth, steps); err != nil {
				return nil, err
			}
		case *ast.RangeStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !strings.HasPrefix(g.expr(call.Fun), "wireList") || len(call.Args) != 2 || s.Key == nil {
				return nil, fmt.Errorf("range over %s: only wireList lists", g.expr(s.X))
			}
			list := g.target(call.Args[1], env)
			steps = addTerm(steps, primitiveSizes["uvarint"]("len("+list+")"))
			index := string(rune('i' + depth))
			inner := map[string]string{}
			for k, v := range env {
				inner[k] = v
			}
			inner[s.Key.(*ast.Ident).Name] = index
			body, err := g.walk(nil, s.Body.List, inner, depth+1)
			if err != nil {
				return nil, err
			}
			steps = append(steps, sizeStep{list: list, index: index, body: body})
		default:
			return nil, fmt.Errorf("%T: not a field", s)
		}
	}
	return steps, nil
}

// decodeOnly reports whether an if condition holds only while decoding:
// c.dec itself, or c.dec && anything.
func decodeOnly(cond ast.Expr) bool {
	for {
		b, ok := cond.(*ast.BinaryExpr)
		if !ok || b.Op != token.LAND {
			break
		}
		cond = b.X
	}
	sel, ok := cond.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "dec"
}

// target is the value a pointer argument points at: &x is x, a pointer
// conversion (*T)(p) is p's target (the primitive re-types it), and a
// bound pointer parameter is what it was bound to.
func (g *sizeGen) target(e ast.Expr, env map[string]string) string {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return g.value(e.X, env)
		}
	case *ast.ParenExpr:
		return g.target(e.X, env)
	case *ast.CallExpr:
		if p, ok := e.Fun.(*ast.ParenExpr); ok && len(e.Args) == 1 {
			if _, ok := p.X.(*ast.StarExpr); ok {
				return g.target(e.Args[0], env)
			}
		}
	case *ast.Ident:
		if v, ok := env[e.Name]; ok {
			return v
		}
	}
	panic(fmt.Sprintf("sizes: cannot follow pointer %s", g.expr(e)))
}

// value renders a value expression with the bound names replaced: a
// parameter by its binding (p.X and (*p)[i] go through a pointer
// parameter to what it points at), a list index by the loop's variable.
func (g *sizeGen) value(e ast.Expr, env map[string]string) string {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := env[e.Name]; ok {
			return v
		}
		return e.Name
	case *ast.SelectorExpr:
		return g.value(e.X, env) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return g.value(e.X, env) + "[" + g.value(e.Index, env) + "]"
	case *ast.ParenExpr:
		return g.value(e.X, env)
	case *ast.StarExpr:
		return g.target(e.X, env)
	}
	panic(fmt.Sprintf("sizes: cannot render %s", g.expr(e)))
}

// expr prints an expression as written.
func (g *sizeGen) expr(e ast.Expr) string {
	var b strings.Builder
	printer.Fprint(&b, g.fset, e)
	return b.String()
}

// addTerm adds one size term to the sum steps end with, opening a new
// sum after a loop.
func addTerm(steps []sizeStep, term string) []sizeStep {
	if len(steps) == 0 || steps[len(steps)-1].list != "" {
		steps = append(steps, sizeStep{})
	}
	last := &steps[len(steps)-1]
	if term == "1" {
		last.konst++
	} else {
		last.terms = append(last.terms, term)
	}
	return steps
}

// renderSteps writes a size method's body: one return expression for a
// kind without lists, otherwise a running total n.
func renderSteps(steps []sizeStep) string {
	if len(steps) == 1 {
		return "\treturn " + renderSum(steps[0], "\t\t") + "\n"
	}
	var b strings.Builder
	b.WriteString("\tn := " + renderSum(steps[0], "\t\t") + "\n")
	renderBody(&b, steps[1:], "\t")
	b.WriteString("\treturn n\n")
	return b.String()
}

func renderBody(b *strings.Builder, steps []sizeStep, indent string) {
	for _, s := range steps {
		if s.list == "" {
			b.WriteString(indent + "n += " + renderSum(s, indent+"\t") + "\n")
			continue
		}
		fmt.Fprintf(b, "%sfor %s := range %s {\n", indent, s.index, s.list)
		renderBody(b, s.body, indent+"\t")
		b.WriteString(indent + "}\n")
	}
}

// renderSum writes a sum one term per line, its constant last.
func renderSum(s sizeStep, indent string) string {
	terms := s.terms
	if s.konst > 0 {
		terms = append(terms, fmt.Sprint(s.konst))
	}
	return strings.Join(terms, " +\n"+indent)
}
