package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DomainMergeDirective marks a function that is a sanctioned merge step for
// per-domain contention state: it may read the domain-indexed caches because
// it combines them across a job's home-domain set (or rebuilds them from
// per-node truth) before anything escapes.
const DomainMergeDirective = "dmp:domainmerge"

// domainStateFields are the Simulator's domain-indexed contention caches.
// Each slot is local truth for one pressure domain; a value read from one
// slot says nothing about another domain, so any consumer must either merge
// across the relevant domain set or be the rebuild step itself.
var domainStateFields = map[string]bool{
	"domRho": true,
}

// DomainMerge enforces the pressure-domain locality contract: the
// per-domain cache (domRho) may be written anywhere but READ only inside a
// function annotated //dmp:domainmerge. The annotated functions
// (refreshAfter, domainSlowdown, Fork) are the merge steps: they rebuild a
// domain from per-node traffic, fold per-domain rho across a job's home
// domains, or copy the whole set. A read anywhere else is a latent
// cross-domain leak: one domain's rho applied to a job resident in another
// domain, exactly the bug class the per-event rescan oracles can detect but
// not localize.
//
// Symmetrically, an annotated function that reads no domain state is
// reported: a stale directive usually means the merge logic moved and took
// the contract's documentation with it.
var DomainMerge = &Analyzer{
	Name: "domainmerge",
	Doc: "per-domain contention state (domRho) may be read only in " +
		"functions annotated //dmp:domainmerge, which merge across the domain set; " +
		"reads elsewhere leak one domain's pressure into another",
	PathFilter: domainCorePath,
	Run:        runDomainMerge,
}

// domainCorePath admits only the simulator core, where the domain caches
// live; the fixture module bypasses the filter via analysistest.
func domainCorePath(path string) bool {
	const core = "internal/core"
	return path == core || strings.HasSuffix(path, "/"+core) ||
		strings.Contains(path, "/"+core+"/")
}

func runDomainMerge(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDomainMerge(pass, fn)
		}
	}
}

func checkDomainMerge(pass *Pass, fn *ast.FuncDecl) {
	annotated := funcDocHasDirective(fn, DomainMergeDirective)

	// Pre-pass: plain `=` assignment targets are writes, not reads — both
	// whole-slice installs (s.domRho = make(...)) and per-slot stores
	// (s.domRho[d] = rho). Compound assignments (+=) and ++/-- read the
	// old value first and stay subject to the directive.
	writes := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range as.Lhs {
			if sel := domainFieldTarget(pass, lhs); sel != nil {
				writes[sel] = true
			}
		}
		return true
	})

	reads := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !isDomainStateField(pass, sel) || writes[sel] {
			return true
		}
		reads++
		if !annotated {
			pass.Reportf(sel.Pos(),
				"per-domain contention state %s read in %s, which is not a merge step: one "+
					"domain's cache says nothing about another; annotate //dmp:domainmerge and "+
					"fold across the domain set, or route through refreshAfter/domainSlowdown",
				sel.Sel.Name, fn.Name.Name)
		}
		return true
	})

	if annotated && reads == 0 {
		pass.Reportf(fn.Pos(),
			"stale //dmp:domainmerge on %s: the function reads no per-domain contention state",
			fn.Name.Name)
	}
}

// domainFieldTarget resolves an assignment LHS to the domain-state selector
// it stores into: the selector itself, or the selector under an index or
// parenthesis (s.domRho[d]).
func domainFieldTarget(pass *Pass, lhs ast.Expr) *ast.SelectorExpr {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			if isDomainStateField(pass, x) {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

// isDomainStateField reports whether sel selects a struct field carrying one
// of the domain cache names. Matching is by field name, like maporder's
// type-name matching, so the fixture can define a lightweight stand-in.
func isDomainStateField(pass *Pass, sel *ast.SelectorExpr) bool {
	if !domainStateFields[sel.Sel.Name] {
		return false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		return s.Kind() == types.FieldVal
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}
