package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CowSafeDirective marks a function as a sanctioned writer of copy-on-write
// shared ledger structures: either it IS the shared→private transition
// (Cluster.own/materialize/thaw), it builds the arrays before any fork can
// exist (constructors, index init), or it is an index mutator whose callers
// established ownership first (the lender-tree refile and the bitset write
// paths, reached only through own()).
const CowSafeDirective = "dmp:cowsafe"

// cowSharedFields are the ledger structures a cluster fork shares with its
// base until thawed: the node ledger slice, the per-shard lender tree, and
// the idle bitset words. Matching is by field name, like domainmerge's, so
// the fixture can define lightweight stand-ins.
var cowSharedFields = map[string]bool{
	"nodes": true, // node ledger rows
	"tree":  true, // lender-tree keys
	"bits":  true, // idle bitset words
}

// CowAlias enforces the copy-on-write mutation discipline of the cluster
// ledger (see internal/cluster/cow.go): after Fork, the node slice and each
// shard's index arrays may be aliased by any number of concurrently running
// branches, and the ONLY safe write path is through the CoW helpers that
// privatise a structure before its first write. Two write shapes are
// therefore restricted to functions annotated //dmp:cowsafe:
//
//   - element stores into a shared array (c.nodes[i] = …, sh.tree[p] = …,
//     s.bits[w] |= …, including compound assignment and ++/--), and
//   - writes through an alias taken in the same function, either with
//     &shared[i] (n := &c.nodes[id]; n.LocalMB += mb) or as a copy of the
//     shared slice header (t := sh.tree; t[p] = k), which bypass own()
//     entirely.
//
// Re-pointing a whole slice header (c.nodes = append(…), sh.tree = …)
// is allowed anywhere: it replaces the header without touching the shared
// backing array — it is how the CoW copies themselves are installed. Reads,
// including read-only &shared[i] preludes and header copies that are only
// read through (Cluster.walk's t := sh.tree), are free.
//
// A write outside an annotated function is a latent cross-branch race: it
// mutates memory another branch may be reading, exactly the bug class the
// fork differential suite under -race can detect but not localize.
// Symmetrically, an annotated function that performs no restricted write is
// reported as stale.
var CowAlias = &Analyzer{
	Name: "cowalias",
	Doc: "writes to copy-on-write shared ledger structures (node rows, lender-tree keys, " +
		"idle bitset words) must go through the CoW mutation helpers: element stores " +
		"and &elem alias writes are allowed only in functions annotated //dmp:cowsafe",
	PathFilter: cowClusterPath,
	Run:        runCowAlias,
}

// cowClusterPath admits only the cluster ledger package, where the CoW
// structures live; the fixture module bypasses the filter via analysistest.
func cowClusterPath(path string) bool {
	const cl = "internal/cluster"
	return path == cl || strings.HasSuffix(path, "/"+cl) ||
		strings.Contains(path, "/"+cl+"/")
}

func runCowAlias(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCowAlias(pass, fn)
		}
	}
}

func checkCowAlias(pass *Pass, fn *ast.FuncDecl) {
	annotated := funcDocHasDirective(fn, CowSafeDirective)
	writes := 0

	// Pre-pass: identifiers bound in this function to &shared[i] or to a
	// copy of a shared slice header. Writes through them are writes to the
	// shared array under another name; reads through them are free.
	aliases := make(map[types.Object]cowAliasOf)
	bind := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		a, ok := cowAliasSource(pass, rhs)
		if !ok {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			aliases[obj] = a
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Rhs {
					bind(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Values {
					bind(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				writes += checkCowWrite(pass, fn, annotated, lhs, aliases)
			}
		case *ast.IncDecStmt:
			writes += checkCowWrite(pass, fn, annotated, st.X, aliases)
		}
		return true
	})

	if annotated && writes == 0 {
		pass.Reportf(fn.Pos(),
			"stale //dmp:cowsafe on %s: the function writes no copy-on-write shared state",
			fn.Name.Name)
	}
}

// cowAliasOf is what an alias variable stands for: the shared field it
// aliases, and whether it holds a copy of the field's slice header rather
// than a pointer to one element.
type cowAliasOf struct {
	field  string
	header bool
}

// cowAliasSource reports whether rhs yields an alias of a CoW-shared array:
// &shared[i] (or deeper, &c.nodes[i].LocalMB), or a copy of the shared
// slice header itself, whole or resliced (sh.tree, sh.tree[n:]).
func cowAliasSource(pass *Pass, rhs ast.Expr) (cowAliasOf, bool) {
	if un, ok := rhs.(*ast.UnaryExpr); ok && un.Op == token.AND {
		if sel := cowElementTarget(pass, un.X); sel != nil {
			return cowAliasOf{field: sel.Sel.Name}, true
		}
		return cowAliasOf{}, false
	}
	for {
		switch x := rhs.(type) {
		case *ast.ParenExpr:
			rhs = x.X
		case *ast.SliceExpr:
			rhs = x.X
		case *ast.SelectorExpr:
			if isCowSharedField(pass, x) {
				return cowAliasOf{field: x.Sel.Name, header: true}, true
			}
			return cowAliasOf{}, false
		default:
			return cowAliasOf{}, false
		}
	}
}

// checkCowWrite classifies one assignment target and reports it when it
// stores into CoW-shared backing outside an annotated function. Returns 1
// for a restricted write (reported or sanctioned), 0 otherwise.
func checkCowWrite(pass *Pass, fn *ast.FuncDecl, annotated bool, lhs ast.Expr, aliases map[types.Object]cowAliasOf) int {
	if sel := cowElementTarget(pass, lhs); sel != nil {
		if !annotated {
			pass.Reportf(lhs.Pos(),
				"element write to CoW-shared %s in %s, which is not a sanctioned mutation helper: "+
					"a forked branch may still share this array; privatise via own/thaw first and "+
					"annotate the helper //dmp:cowsafe",
				sel.Sel.Name, fn.Name.Name)
		}
		return 1
	}
	if id, a := cowAliasWriteBase(pass, lhs, aliases); id != nil {
		switch {
		case annotated:
		case a.header:
			pass.Reportf(lhs.Pos(),
				"write through %s, a copy of CoW-shared %s's slice header, in %s: the copy shares "+
					"the backing a forked branch may still read; privatise via own/thaw first and "+
					"annotate the helper //dmp:cowsafe",
				id.Name, a.field, fn.Name.Name)
		default:
			pass.Reportf(lhs.Pos(),
				"write through %s, an alias of CoW-shared %s, in %s: taking &%s[i] bypasses the "+
					"shared→private transition; obtain the row from own() or annotate //dmp:cowsafe",
				id.Name, a.field, fn.Name.Name, a.field)
		}
		return 1
	}
	return 0
}

// cowElementTarget resolves an expression to the CoW array selector whose
// backing it stores into: an index expression over a shared field, possibly
// under further selectors or indexes (c.nodes[i].LocalMB). A bare selector
// without an index is a slice-header re-point, not an element store, and
// resolves to nil.
func cowElementTarget(pass *Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if sel, ok := x.X.(*ast.SelectorExpr); ok && isCowSharedField(pass, sel) {
				return sel
			}
			e = x.X
		default:
			return nil
		}
	}
}

// cowAliasWriteBase resolves an assignment target to the alias variable it
// writes through, when the base identifier was bound to an alias of a
// shared array earlier in the function. A bare identifier target is a
// rebinding of the variable, not a write through it, and resolves to nil.
func cowAliasWriteBase(pass *Pass, lhs ast.Expr, aliases map[types.Object]cowAliasOf) (*ast.Ident, cowAliasOf) {
	indirect := false
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
			indirect = true
		case *ast.SelectorExpr:
			lhs = x.X
			indirect = true
		case *ast.IndexExpr:
			lhs = x.X
			indirect = true
		case *ast.Ident:
			if !indirect {
				return nil, cowAliasOf{}
			}
			// The types.Object disambiguates shadowed names, so a
			// read-only prelude alias in one scope never taints a
			// same-named owned row in another.
			if obj := pass.TypesInfo.ObjectOf(x); obj != nil {
				if a, ok := aliases[obj]; ok {
					return x, a
				}
			}
			return nil, cowAliasOf{}
		default:
			return nil, cowAliasOf{}
		}
	}
}

// isCowSharedField reports whether sel selects a struct field carrying one
// of the CoW-shared array names. Matching is by field name, like
// domainmerge's, so the fixture can define a lightweight stand-in.
func isCowSharedField(pass *Pass, sel *ast.SelectorExpr) bool {
	if !cowSharedFields[sel.Sel.Name] {
		return false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		return s.Kind() == types.FieldVal
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}
