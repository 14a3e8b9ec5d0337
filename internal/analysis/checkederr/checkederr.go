// Package checkederr defines an analyzer that requires callers to
// consume the results of the repository's validation functions.
//
// The schedule replays — core.Replay and the validators built on it,
// core.Validate, core.ValidateConstraints, fault.Validate and the
// underlay's Network.Validate, with their facade spellings — are the
// runtime half of the determinism contract: they certify that a schedule
// obeys the §3.1 move constraints and that a faulted run replays its
// plan byte-for-byte. Discarding their error silently converts a failed
// certification into a reported success, so every call site must check
// (or deliberately propagate) the result.
package checkederr

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

const doc = `require the errors of schedule/plan validation functions to be consumed

Calls to the configured validation functions (by default ocd.Validate,
ocd.ValidateConstraints, ocd.ValidateFaulted, ocd/internal/core.Replay,
ocd/internal/core.Validate, ocd/internal/core.ValidateConstraints,
ocd/internal/fault.Validate, and the method
(ocd/internal/underlay.Network).Validate) must not discard their error:
using the call as a statement, assigning the error (the last result) to
the blank identifier, or launching it with go/defer all drop the only
evidence that a schedule or fault replay failed certification.

The -funcs flag replaces the target list. Entries name package-level
functions as "importpath.Func" and methods as "(importpath.Type).Method";
pointer receivers match their value form.`

// Analyzer is the checkederr go/analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name:     "checkederr",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var defaultFuncs = []string{
	"ocd.Validate",
	"ocd.ValidateConstraints",
	"ocd.ValidateFaulted",
	"ocd/internal/core.Replay",
	"ocd/internal/core.Validate",
	"ocd/internal/core.ValidateConstraints",
	"ocd/internal/fault.Validate",
	"(ocd/internal/underlay.Network).Validate",
}

var funcsFlag string

func init() {
	Analyzer.Flags.StringVar(&funcsFlag, "funcs", strings.Join(defaultFuncs, ","),
		`comma-separated validation functions ("pkgpath.Func" or "(pkgpath.Type).Method") whose errors must be consumed`)
}

func run(pass *analysis.Pass) (interface{}, error) {
	targets := make(map[string]bool)
	for _, name := range strings.Split(funcsFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			targets[name] = true
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodeFilter := []ast.Node{(*ast.CallExpr)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok {
			return true
		}
		name := qualifiedName(fn)
		if name == "" || !targets[name] {
			return true
		}
		if discarded(pass, call, stack) {
			pass.Reportf(call.Pos(), "result of %s is discarded; the validation error must be checked", name)
		}
		return true
	})
	return nil, nil
}

// qualifiedName renders fn as "pkgpath.Func" for package-level functions
// or "(pkgpath.Type).Method" for methods, stripping pointer receivers.
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

// discarded reports whether the call's error is dropped: expression
// statement, go/defer, or the last result, the error, assigned to blank.
func discarded(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	// stack ends with the CallExpr itself; the parent precedes it.
	if len(stack) < 2 {
		return false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.ExprStmt:
		return true
	case *ast.GoStmt, *ast.DeferStmt:
		return true
	case *ast.AssignStmt:
		// Only the form `x, _ = f()` / `_ = f()` where the call is the
		// sole RHS can drop the error, its last result.
		if len(parent.Rhs) != 1 || parent.Rhs[0] != ast.Expr(call) {
			return false
		}
		id, ok := parent.Lhs[len(parent.Lhs)-1].(*ast.Ident)
		return ok && id.Name == "_"
	}
	return false
}
