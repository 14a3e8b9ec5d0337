// Package scratchalias defines an analyzer that flags escaping or
// retained references to designated reusable scratch buffers.
//
// The hot paths of the simulator reuse per-run scratch slices instead of
// allocating per step (the kernel's accepted-move and arc-ID buffers, every
// heuristic's work lists, the trace observers' per-step arrays). The
// unchecked convention those buffers rely on: a reference to a scratch
// buffer must never outlive the call that filled it, because the next
// step overwrites the backing array in place. PR 4's exact-size-copy fix
// repaired one such aliasing bug case by case; this analyzer enforces
// the rule for every designated buffer at compile time.
//
// A buffer is designated as scratch either by name — an identifier named
// "scratch" or carrying the "scratch" prefix — or explicitly with a
// directive on the declaration line or the line above it:
//
//	//ocd:scratch
//	delivered []core.Move
//
// Within each function the analyzer taints uses of designated buffers
// and everything derived from them by assignment, reslicing, or append,
// then reports taint that escapes: returned values, stores into
// non-scratch fields, globals, or container elements, channel sends,
// captures by goroutine closures, and arguments to known retaining
// callees (by default (ocd/internal/core.Schedule).Append, which stores
// its Step argument in the schedule). A site that is provably safe can
// be suppressed with a justified directive on or above the line:
//
//	//ocd:scratchok <reason>
package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

const doc = `flag escaping or retained references to reusable scratch buffers

Scratch buffers (identifiers named or prefixed "scratch", or any
declaration annotated with //ocd:scratch on or directly above its line)
are overwritten in place on every reuse, so no reference to one may
outlive the call that filled it. The analyzer taints scratch values and
everything derived from them (assignments, reslices, appends) and
reports taint that escapes the function: return statements, stores into
non-scratch fields / package variables / container elements, channel
sends, goroutine captures, and arguments to retaining callees
(-retainers, default "(ocd/internal/core.Schedule).Append"). Safe sites
carry a justified "//ocd:scratchok <reason>" directive.`

// Directive designates a declaration as a scratch buffer.
const Directive = "//ocd:scratch"

// OkDirective suppresses a scratchalias diagnostic with a reason.
const OkDirective = "//ocd:scratchok"

// Analyzer is the scratchalias go/analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name:     "scratchalias",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var defaultRetainers = []string{
	"(ocd/internal/core.Schedule).Append",
}

var retainersFlag string

func init() {
	Analyzer.Flags.StringVar(&retainersFlag, "retainers", strings.Join(defaultRetainers, ","),
		`comma-separated callees that retain their slice arguments ("pkgpath.Func" or "(pkgpath.Type).Method")`)
}

func run(pass *analysis.Pass) (interface{}, error) {
	retainers := make(map[string]bool)
	for _, name := range strings.Split(retainersFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			retainers[name] = true
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	scratch := designated(pass)
	suppress := collectOkDirectives(pass)

	// Analyze each function declaration as one taint scope. Function
	// literals are analyzed within their enclosing declaration so that
	// captures of tainted locals are visible.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		checkFunc(pass, fd, scratch, retainers, suppress)
	})
	return nil, nil
}

// designated collects the objects declared as scratch buffers: every
// variable (field, local, package var) whose name is "scratch" or has the
// "scratch" prefix, plus every variable whose declaration carries the
// //ocd:scratch directive on its line or the line above.
func designated(pass *analysis.Pass) map[types.Object]bool {
	directiveLines := make(map[directiveKey]bool)
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != Directive && !strings.HasPrefix(c.Text, Directive+" ") {
					continue
				}
				line := pass.Fset.Position(c.Pos()).Line
				directiveLines[directiveKey{fname, line}] = true
				directiveLines[directiveKey{fname, line + 1}] = true
			}
		}
	}
	out := make(map[types.Object]bool)
	for id, obj := range pass.TypesInfo.Defs {
		if obj == nil {
			continue
		}
		if _, isVar := obj.(*types.Var); !isVar {
			continue
		}
		if scratchName(id.Name) {
			out[obj] = true
			continue
		}
		posn := pass.Fset.Position(id.Pos())
		if directiveLines[directiveKey{posn.Filename, posn.Line}] {
			out[obj] = true
		}
	}
	return out
}

func scratchName(name string) bool {
	return strings.HasPrefix(name, "scratch")
}

type directiveKey struct {
	file string
	line int
}

// collectOkDirectives maps (file, line) to the //ocd:scratchok reason; a
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

// checkFunc taints scratch-derived values within fd and reports escapes.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, scratch map[types.Object]bool,
	retainers map[string]bool, suppress map[directiveKey]string) {

	tainted := make(map[types.Object]bool)

	// isScratchExpr reports whether e denotes a designated scratch buffer
	// or a value tainted by one: a scratch identifier or field selector, a
	// tainted local, a reslice of either, or an append rooted at one.
	var isScratchExpr func(e ast.Expr) bool
	isScratchExpr = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			return obj != nil && (scratch[obj] || tainted[obj])
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[e.Sel]
			return obj != nil && scratch[obj]
		case *ast.SliceExpr:
			return isScratchExpr(e.X)
		case *ast.ParenExpr:
			return isScratchExpr(e.X)
		case *ast.IndexExpr:
			// An element of a scratch container aliases its backing array
			// only for reference-typed elements; int/Move elements are
			// copies. Treat element reads as clean unless the element type
			// itself is a slice.
			if !isScratchExpr(e.X) {
				return false
			}
			if t := pass.TypesInfo.TypeOf(e); t != nil {
				_, isSlice := t.Underlying().(*types.Slice)
				return isSlice
			}
			return false
		case *ast.CallExpr:
			// Only the append builtin propagates its first argument's
			// backing array to its result.
			if id, ok := e.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
					return isScratchExpr(e.Args[0])
				}
			}
			return false
		}
		return false
	}

	report := func(pos token.Pos, format string, args ...interface{}) {
		posn := pass.Fset.Position(pos)
		if reason, ok := suppress[directiveKey{posn.Filename, posn.Line}]; ok {
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(pos, "%s directive requires a reason explaining why the reference cannot be retained", OkDirective)
			}
			return
		}
		pass.Reportf(pos, format, args...)
	}

	// Pass 1: propagate taint through assignments to locals until fixed
	// point (bounded by the number of assignments).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isScratchExpr(as.Rhs[i]) {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || scratch[obj] || tainted[obj] {
					continue
				}
				tainted[obj] = true
				changed = true
			}
			return true
		})
	}

	// Pass 2: report escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isScratchExpr(res) {
					report(res.Pos(), "scratch buffer %s is returned; the caller may retain it past the next reuse", exprName(res))
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if !isScratchExpr(n.Rhs[i]) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.Ident:
					// Taint propagation to a local: handled in pass 1.
				case *ast.SelectorExpr:
					// Storing into a field: fine when the field is itself a
					// designated scratch slot, an escape otherwise.
					obj := pass.TypesInfo.Uses[l.Sel]
					if obj != nil && scratch[obj] {
						continue
					}
					report(n.Pos(), "scratch buffer %s stored in non-scratch field %s; the field retains the buffer past its next reuse", exprName(n.Rhs[i]), l.Sel.Name)
				case *ast.IndexExpr:
					if isScratchExpr(l.X) {
						continue // scratch-into-scratch is the staging pattern
					}
					report(n.Pos(), "scratch buffer %s stored in a container element; the container retains the buffer past its next reuse", exprName(n.Rhs[i]))
				case *ast.StarExpr:
					report(n.Pos(), "scratch buffer %s stored through a pointer; the pointee retains the buffer past its next reuse", exprName(n.Rhs[i]))
				}
			}
		case *ast.SendStmt:
			if isScratchExpr(n.Value) {
				report(n.Pos(), "scratch buffer %s sent on a channel; the receiver holds it while the buffer is reused", exprName(n.Value))
			}
		case *ast.GoStmt:
			// A goroutine capturing a scratch buffer (or tainted local)
			// races with its reuse.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					e, ok := inner.(ast.Expr)
					if !ok {
						return true
					}
					switch e.(type) {
					case *ast.Ident, *ast.SelectorExpr:
						if isScratchExpr(e) {
							report(e.Pos(), "scratch buffer %s captured by a goroutine; it races with the buffer's next reuse", exprName(e))
							return false
						}
					}
					return true
				})
			}
			for _, arg := range n.Call.Args {
				if isScratchExpr(arg) {
					report(arg.Pos(), "scratch buffer %s passed to a goroutine; it races with the buffer's next reuse", exprName(arg))
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isScratchExpr(v) {
					report(v.Pos(), "scratch buffer %s stored in a composite literal; the literal retains the buffer past its next reuse", exprName(v))
				}
			}
		case *ast.CallExpr:
			callee := typeutil.Callee(pass.TypesInfo, n)
			fn, ok := callee.(*types.Func)
			if !ok {
				return true
			}
			if !retainers[qualifiedName(fn)] {
				return true
			}
			for _, arg := range n.Args {
				if isScratchExpr(arg) {
					report(arg.Pos(), "scratch buffer %s passed to retaining callee %s; pass an exact-size copy instead", exprName(arg), qualifiedName(fn))
				}
			}
		}
		return true
	})
}

// exprName renders a short name for a flagged expression.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.SliceExpr:
		return exprName(e.X)
	case *ast.ParenExpr:
		return exprName(e.X)
	case *ast.IndexExpr:
		return exprName(e.X)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			return exprName(e.Args[0])
		}
	}
	return "value"
}

// qualifiedName renders fn as "pkgpath.Func" or "(pkgpath.Type).Method",
// stripping pointer receivers — the same format checkederr uses.
func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return "(" + fn.Pkg().Path() + "." + named.Obj().Name() + ")." + fn.Name()
}
