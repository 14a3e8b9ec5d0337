// Package prngshare defines an analyzer that flags PRNG values escaping
// their owning goroutine or experiment cell.
//
// Every random draw in the simulator comes from a *math/rand.Rand owned
// by exactly one sequential context: the kernel's per-run strategy
// stream or a runner cell's stream derived from its seed. (Fault models,
// loss included, draw from seeded hashes, not from a stream.) The
// determinism guarantee — byte-identical output for any worker count —
// holds only while that ownership is respected.
// *rand.Rand is not safe for concurrent use, and even a data-race-free
// shared stream makes the draw sequence depend on scheduling order.
//
// The analyzer reports three escape classes:
//
//   - a PRNG (or rand.Source) passed to or captured by a `go` statement,
//     which hands the stream to a second goroutine;
//   - a PRNG sent on a channel, which does the same asynchronously;
//   - a runner cell's Run closure (a func literal in a composite literal
//     of the -cell type, default ocd/internal/runner.Cell) referencing a
//     PRNG declared outside the closure — whether a captured local or a
//     field reached through a captured struct. Cells must construct
//     their PRNG inside Run from the seed argument; a captured stream
//     would be shared across cells and advanced in completion order,
//     which also covers reuse of the stream after the runner.Map call.
//
// A site that is provably single-threaded can be suppressed with a
// justified directive on or above the line:
//
//	//ocd:prngok <reason>
package prngshare

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const doc = `flag PRNG streams escaping their owning goroutine or runner cell

*math/rand.Rand and rand.Source values are single-owner: sharing one
across goroutines races, and sharing one across experiment cells makes
the draw sequence depend on scheduling order, breaking the runner's
byte-identical-output guarantee. The analyzer reports PRNGs passed to or
captured by go statements, sent on channels, or referenced by a runner
cell's Run closure from outside the closure (-cell names the cell type,
default ocd/internal/runner.Cell). Safe sites carry a justified
"//ocd:prngok <reason>" directive.`

// OkDirective suppresses a prngshare diagnostic with a reason.
const OkDirective = "//ocd:prngok"

// Analyzer is the prngshare go/analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name:     "prngshare",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var cellFlag string

func init() {
	Analyzer.Flags.StringVar(&cellFlag, "cell", "ocd/internal/runner.Cell",
		`qualified name ("pkgpath.Type") of the experiment cell struct whose Run closure owns its PRNG`)
}

// randTypeNames are the math/rand types whose values are single-owner
// streams.
var randTypeNames = map[string]bool{"Rand": true, "Source": true, "Source64": true}

// isPRNG reports whether t is (a pointer to) math/rand.Rand or one of
// its Source interfaces.
func isPRNG(t types.Type) bool {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "math/rand" && randTypeNames[obj.Name()]
}

type directiveKey struct {
	file string
	line int
}

// collectOkDirectives maps (file, line) to the //ocd:prngok reason; a
// directive governs its own line and the next.
func collectOkDirectives(pass *analysis.Pass) map[directiveKey]string {
	out := make(map[directiveKey]string)
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, OkDirective) {
					continue
				}
				reason := strings.TrimPrefix(c.Text, OkDirective)
				line := pass.Fset.Position(c.Pos()).Line
				out[directiveKey{fname, line}] = reason
				out[directiveKey{fname, line + 1}] = reason
			}
		}
	}
	return out
}

func run(pass *analysis.Pass) (interface{}, error) {
	suppress := collectOkDirectives(pass)
	report := func(pos token.Pos, format string, args ...interface{}) {
		posn := pass.Fset.Position(pos)
		if reason, ok := suppress[directiveKey{posn.Filename, posn.Line}]; ok {
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(pos, "%s directive requires a reason explaining why the stream stays single-owner", OkDirective)
			}
			return
		}
		pass.Reportf(pos, format, args...)
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodes := []ast.Node{
		(*ast.GoStmt)(nil),
		(*ast.SendStmt)(nil),
		(*ast.CompositeLit)(nil),
	}
	ins.Preorder(nodes, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if t := pass.TypesInfo.TypeOf(arg); t != nil && isPRNG(t) {
					report(arg.Pos(), "PRNG %s passed to a goroutine; *rand.Rand is single-owner and sharing a stream makes draws depend on scheduling", exprName(arg))
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				reportEscapes(pass, lit, report, "captured by a goroutine; *rand.Rand is single-owner and sharing a stream makes draws depend on scheduling")
			}
		case *ast.SendStmt:
			if t := pass.TypesInfo.TypeOf(n.Value); t != nil && isPRNG(t) {
				report(n.Pos(), "PRNG %s sent on a channel; the receiver would share its stream", exprName(n.Value))
			}
		case *ast.CompositeLit:
			if !isCellLit(pass, n) {
				return
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "Run" {
					continue
				}
				if lit, ok := kv.Value.(*ast.FuncLit); ok {
					reportEscapes(pass, lit, report, "referenced by a runner cell's Run closure; construct the cell's PRNG inside Run from the seed argument")
				}
			}
		}
	})
	return nil, nil
}

// isCellLit reports whether lit is a composite literal of the configured
// cell type (matching generic instantiations by their origin).
func isCellLit(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path()+"."+obj.Name() == cellFlag
}

// reportEscapes reports every PRNG-typed expression inside lit whose
// root variable is declared outside the literal: captured locals and
// parameters, and PRNG fields reached through captured structs. Each
// root object is reported once, at its first use.
func reportEscapes(pass *analysis.Pass, lit *ast.FuncLit, report func(token.Pos, string, ...interface{}), what string) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		t := pass.TypesInfo.TypeOf(e)
		if t == nil || !isPRNG(t) {
			return true
		}
		root := rootObject(pass, e)
		if root == nil || seen[root] {
			return true
		}
		// Declared inside the literal (including its parameters) means the
		// closure owns it; declared outside means it escaped in.
		if lit.Pos() <= root.Pos() && root.Pos() < lit.End() {
			return true
		}
		seen[root] = true
		report(e.Pos(), "PRNG %s %s", exprName(e), what)
		return false
	})
}

// rootObject resolves the variable at the base of an identifier or
// selector chain (for s.rng, the object for s).
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprName renders a short name for a flagged expression.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprName(e.X)
	case *ast.IndexExpr:
		return exprName(e.X)
	}
	return "value"
}
