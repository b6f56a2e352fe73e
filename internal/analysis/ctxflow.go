package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces request-context plumbing in the daemon's serving packages
// (internal/server and experiments): any function reachable from an HTTP
// handler must thread the request's context, not mint or resurrect one.
//
// Handlers are recognized by signature — a parameter list containing both an
// http.ResponseWriter and a *http.Request — and the reachable set is computed
// over the module call graph, including goroutines the handler starts and
// calls made through function-typed struct fields (resolved via the graph's
// field-wiring table, which is how the server's runFn seam is followed; the
// work it runs is a function literal, whose calls count as those of the
// function that builds it, so the experiment runners are reached too). On
// that set, two things are flagged:
//
//   - context.Background() / context.TODO(): a fresh root context detaches
//     the work from the request's cancellation and deadline;
//   - a context argument that is read from a struct field or is the nil
//     literal: a stored context is a context that outlives (or predates) the
//     request it is handed to. Deliberate detachment points — the server's
//     join-a-running-run seam — are sanctioned case by case with
//     //dmplint:ignore and a reason.
//
// Calls through interfaces are not followed (the graph records but cannot
// resolve them); the argument-shape rule still applies at such call sites,
// which is what makes dropped contexts visible even across dynamic seams.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "on call paths reachable from an HTTP handler in internal/server and " +
		"experiments, flag context.Background()/context.TODO() and context " +
		"arguments read from struct fields or passed as nil",
	PathFilter: ctxFlowPath,
	Run:        runCtxFlow,
}

// ctxFlowPackages are the import-path segments ctxflow patrols.
var ctxFlowPackages = []string{"internal/server", "experiments"}

func ctxFlowPath(path string) bool {
	for _, seg := range ctxFlowPackages {
		if path == seg || strings.HasSuffix(path, "/"+seg) ||
			strings.Contains(path, "/"+seg+"/") || strings.HasPrefix(path, seg+"/") {
			return true
		}
	}
	return false
}

// handlerReach computes the set of functions reachable from HTTP handlers,
// module-wide, following static edges and field-wired dynamic calls.
func handlerReach(pass *Pass) map[*types.Func]bool {
	return pass.Module.Cached("ctxflow.reach", func() any {
		g := pass.Module.Graph()
		reach := make(map[*types.Func]bool)
		var stack []*types.Func
		push := func(fn *types.Func) {
			if fn != nil && !reach[fn] {
				reach[fn] = true
				stack = append(stack, fn)
			}
		}
		for fn := range g.Funcs {
			if isHandlerSig(fn) {
				push(fn)
			}
		}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			node := g.Node(fn)
			if node == nil {
				continue
			}
			for _, e := range node.Calls {
				push(e.Callee)
			}
			for _, d := range node.Dyn {
				if d.Field != nil {
					for _, target := range g.FieldFuncs[d.Field] {
						push(target)
					}
				}
			}
		}
		return reach
	}).(map[*types.Func]bool)
}

// isHandlerSig reports whether fn's parameters include a ResponseWriter and
// a Request. Matching is by type name, not import path — the same choice
// methodCall makes — so analyzer fixtures can define lightweight stand-ins
// instead of pulling net/http's dependency tree through the source importer.
func isHandlerSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	var w, r bool
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if typeNamed(t, "ResponseWriter") {
			w = true
		}
		if typeNamed(t, "Request") {
			r = true
		}
	}
	return w && r
}

// typeNamed reports whether t (pointers dereferenced) is a named type with
// the given name, regardless of package.
func typeNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

func runCtxFlow(pass *Pass) {
	reach := handlerReach(pass)
	if len(reach) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !reach[fn] {
				continue
			}
			checkCtxFlow(pass, fd)
		}
	}
}

func checkCtxFlow(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, isPkg := pkgFuncCall(pass, call); isPkg && path == "context" &&
			(name == "Background" || name == "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s() in %s, which is reachable from an HTTP handler; thread the request context instead",
				name, fd.Name.Name)
			return true
		}
		sig, isSig := typeAsSignature(pass.TypeOf(call.Fun))
		if !isSig {
			return true
		}
		for i, arg := range call.Args {
			if i >= sig.Params().Len() {
				break
			}
			if !namedIn(sig.Params().At(i).Type(), "context", "Context") {
				continue
			}
			switch a := ast.Unparen(arg).(type) {
			case *ast.Ident:
				if _, isNil := pass.TypesInfo.Uses[a].(*types.Nil); isNil {
					pass.Reportf(a.Pos(),
						"nil context passed to %s on a handler-reachable path; pass the request context",
						calleeName(call))
				}
			case *ast.SelectorExpr:
				if v, isVar := pass.TypesInfo.Uses[a.Sel].(*types.Var); isVar && v.IsField() {
					pass.Reportf(a.Pos(),
						"context read from field %s passed to %s on a handler-reachable path; plumb the request context instead",
						renderExpr(a), calleeName(call))
				}
			}
		}
		return true
	})
}

// typeAsSignature unwraps t to a function signature, if it is one.
func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// calleeName renders the called function for diagnostics, best-effort.
func calleeName(call *ast.CallExpr) string {
	if name := renderExpr(call.Fun); name != "" {
		return name
	}
	return "the call"
}
