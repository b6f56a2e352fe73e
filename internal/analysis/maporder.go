package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range-over-map loops whose bodies are sensitive to
// iteration order: appending into a slice that outlives the loop, emitting
// telemetry, accumulating a floating-point value (float addition is not
// associative, so order changes the bits), or scheduling simulation events.
// The sanctioned pattern — collect the keys, sort, then iterate the sorted
// slice — is recognised: an append whose target is sorted later in the same
// block is not flagged.
//
// This is exactly the bug class the incremental-refresh work (PR 4) guards
// against at runtime with 30-seed differential tests; the analyzer localizes
// it at compile time.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map bodies that append to escaping slices, emit telemetry, " +
		"accumulate floats, or schedule events: map iteration order is nondeterministic; " +
		"collect and sort keys first",
	Run: runMapOrder,
}

// recorderReadOnly lists Recorder methods that read state without emitting;
// calling them in map order is harmless.
var recorderReadOnly = map[string]bool{
	"Now": true, "SampleInterval": true, "Count": true,
	"TotalEvents": true, "Err": true, "Series": true,
}

// engineScheduling lists the Engine methods that enqueue or move events;
// their relative order decides tie-breaking between same-time events, so
// calling any of them from a map range would order the schedule by map
// iteration, which varies run to run.
var engineScheduling = map[string]bool{
	"Schedule": true, "After": true, "Every": true, "Reschedule": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, st := range list {
				if ls, ok := st.(*ast.LabeledStmt); ok {
					st = ls.Stmt
				}
				rs, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := pass.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRangeBody(pass, rs, list[i+1:])
			}
			return true
		})
	}
}

// checkMapRangeBody inspects one map-range body for order-sensitive sinks.
// following holds the statements after the loop in the same block, consulted
// for the collect-then-sort idiom.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	rangedOver := types.ExprString(rs.X)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(pass, node) && len(node.Args) > 0 {
				target := node.Args[0]
				// A slice born inside the loop body dies each iteration;
				// only appends into longer-lived slices leak map order.
				if obj := identObj(pass, target); obj != nil && posWithin(rs.Body, obj) {
					return true
				}
				if sortedAfter(pass, target, following) {
					return true
				}
				pass.Reportf(node.Pos(),
					"append to %s inside range over map %s: iteration order is nondeterministic; "+
						"collect keys into a slice and sort before iterating",
					types.ExprString(target), rangedOver)
				return true
			}
			if _, typeName, method, ok := methodCall(pass, node); ok {
				switch {
				case typeName == "Recorder" && !recorderReadOnly[method]:
					pass.Reportf(node.Pos(),
						"telemetry %s emitted inside range over map %s: the event stream would "+
							"depend on map iteration order; iterate sorted keys instead",
						method, rangedOver)
				case typeName == "Engine" && engineScheduling[method]:
					pass.Reportf(node.Pos(),
						"Engine.%s called inside range over map %s: same-time events would fire "+
							"in map iteration order; iterate sorted keys instead",
						method, rangedOver)
				}
			}
		case *ast.AssignStmt:
			checkFloatAccum(pass, node, rs, rangedOver)
		case *ast.IncDecStmt:
			if isFloat(pass.TypeOf(node.X)) && !declaredIn(pass, node.X, rs.Body) {
				pass.Reportf(node.Pos(),
					"floating-point accumulation into %s inside range over map %s: float addition "+
						"is not associative, so map order changes the result bits",
					types.ExprString(node.X), rangedOver)
			}
		}
		return true
	})
}

// checkFloatAccum flags `x += f`, `x -= f`, `x *= f`, `x /= f` and the
// spelled-out `x = x + f` forms when x is floating point and outlives the
// loop body.
func checkFloatAccum(pass *Pass, as *ast.AssignStmt, rs *ast.RangeStmt, rangedOver string) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs := as.Lhs[0]
	if !isFloat(pass.TypeOf(lhs)) || declaredIn(pass, lhs, rs.Body) {
		return
	}
	accumulates := false
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		accumulates = true
	case token.ASSIGN:
		if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
			switch bin.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				l := types.ExprString(lhs)
				accumulates = types.ExprString(bin.X) == l || types.ExprString(bin.Y) == l
			}
		}
	}
	if accumulates {
		pass.Reportf(as.Pos(),
			"floating-point accumulation into %s inside range over map %s: float addition is "+
				"not associative, so map order changes the result bits; iterate sorted keys",
			types.ExprString(lhs), rangedOver)
	}
}

// declaredIn reports whether e's root identifier is declared inside node.
// Field selectors and index expressions resolve to their base (p.T → p), so
// accumulating into a field of a body-local loop copy stays exempt: each map
// entry is visited exactly once, making per-entry targets order-independent.
func declaredIn(pass *Pass, e ast.Expr, node ast.Node) bool {
	obj := identObj(pass, rootExpr(e))
	return obj != nil && posWithin(node, obj)
}

// rootExpr strips selectors, indexing, dereferences, and parens down to the
// base expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// sortFuncs lists the sort/slices entry points that establish a
// deterministic order over a collected slice.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Ints": true, "Strings": true, "Float64s": true,
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether one of the statements after the loop sorts the
// append target — the collect-then-sort idiom. The target match is textual
// (types.ExprString), which also sees through wrappers like
// sort.Sort(sort.IntSlice(ids)).
func sortedAfter(pass *Pass, target ast.Expr, following []ast.Stmt) bool {
	want := types.ExprString(target)
	for _, st := range following {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			pkgPath, name, ok := pkgFuncCall(pass, call)
			if !ok || !sortFuncs[pkgPath][name] {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if e, isExpr := a.(ast.Expr); isExpr && types.ExprString(e) == want {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
