package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// The cost-charging analyzer enforces the simulated-time discipline that
// keeps the paper's latency numbers honest: an exported kernel/recovery
// operation that does per-page work (page-table moves, page copies,
// checksum walks, dirty scans) must advance the simulated clock by a
// costmodel term — and must do so unconditionally, not only on some branch.
// An uncharged bulk operation silently makes preservation look free; a
// conditionally charged one skews the distribution exactly on the paths
// experiments care about.
//
// Scope: exported functions and methods of packages named kernel and
// recovery (the layers that own a clock; package mem is the substrate and is
// charged by these callers — see DESIGN.md). An operation is per-page when
// its body — or any same-package unexported callee, transitively — calls one
// of the mem bulk-page APIs. Charge evidence is a call to Clock.Advance or
// Ctx.Charge/ChargeBytes; it satisfies the contract when some function on
// the per-page path makes it as a top-level body statement (early error
// returns before it are fine: an operation that did not happen costs
// nothing).
var costChargeAnalyzer = &Analyzer{
	Name: "cost-charging",
	Doc:  "exported kernel/recovery ops doing per-page work must charge a costmodel term on every path",
	Run:  runCostCharge,
}

// bulkPageOps is the per-page work surface of package mem: AddressSpace
// frame walks and transfers, snapshot-store commits, and rewind-domain
// brackets — anything whose cost scales with pages touched.
var bulkPageOps = map[string]bool{
	"MovePages": true, "UnmovePages": true, "CopyPages": true, "Clone": true,
	"PageChecksum": true, "ClearDirty": true,
	"DirtySetIn": true, "DirtyPages": true, "DirtyPagesIn": true,
	"ResidentPages": true, "BeginDomain": true, "CommitDomain": true,
	"DiscardDomain": true, "Commit": true, "CheckFrozen": true,
}

func runCostCharge(r *Repo) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range r.Pkgs {
		if name := pkg.Types.Name(); name != "kernel" && name != "recovery" {
			continue
		}
		out = append(out, costChargeInPkg(r, pkg)...)
	}
	return out
}

// costFacts is the per-function summary the package-level fixpoint builds on.
type costFacts struct {
	decl      *ast.FuncDecl
	perPage   bool // calls a mem bulk-page API directly
	chargeTop bool // charges as a top-level body statement
	chargeAny bool // charges anywhere
	samePkg   []*types.Func
}

func costChargeInPkg(r *Repo, pkg *Pkg) []Diagnostic {
	info := pkg.Info

	facts := map[*types.Func]*costFacts{}
	var order []*types.Func
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			facts[fn] = summarizeCost(pkg, fd)
			order = append(order, fn)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].FullName() < order[j].FullName() })

	var out []Diagnostic
	for _, fn := range order {
		f := facts[fn]
		if !fn.Exported() {
			continue
		}
		perPage, chargeTop, chargeAny := walkCost(fn, facts, map[*types.Func]bool{})
		if !perPage || chargeTop {
			continue
		}
		file, line, col := r.Position(f.decl.Pos())
		msg := fmt.Sprintf("exported %s does per-page work without charging a costmodel term", fn.Name())
		if chargeAny {
			msg = fmt.Sprintf("exported %s does per-page work but charges only conditionally; charge on every path", fn.Name())
		}
		out = append(out, Diagnostic{Analyzer: "cost-charging", File: file, Line: line, Col: col, Msg: msg})
	}
	return out
}

// walkCost folds the per-page and charge facts over fn and its same-package
// callee closure.
func walkCost(fn *types.Func, facts map[*types.Func]*costFacts, visited map[*types.Func]bool) (perPage, chargeTop, chargeAny bool) {
	if visited[fn] {
		return false, false, false
	}
	visited[fn] = true
	f := facts[fn]
	if f == nil {
		return false, false, false
	}
	perPage, chargeTop, chargeAny = f.perPage, f.chargeTop, f.chargeAny
	for _, callee := range f.samePkg {
		p, t, a := walkCost(callee, facts, visited)
		perPage = perPage || p
		chargeTop = chargeTop || t
		chargeAny = chargeAny || a
	}
	return perPage, chargeTop, chargeAny
}

// summarizeCost extracts one function's local facts.
func summarizeCost(pkg *Pkg, fd *ast.FuncDecl) *costFacts {
	info := pkg.Info
	f := &costFacts{decl: fd}
	seen := map[*types.Func]bool{}

	// Top-level body statements (plus defers declared there) are the
	// "unconditional" charge positions.
	for _, stmt := range fd.Body.List {
		s := stmt
		if d, ok := s.(*ast.DeferStmt); ok {
			if isChargeCall(info, d.Call) {
				f.chargeTop = true
			}
			continue
		}
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
				return false // nested control flow: no longer unconditional
			case *ast.CallExpr:
				if isChargeCall(info, n.(*ast.CallExpr)) {
					f.chargeTop = true
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isChargeCall(info, call) {
			f.chargeAny = true
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true
		}
		if inPackage(fn, "internal/mem") && bulkPageOps[fn.Name()] {
			f.perPage = true
			return true
		}
		if fn.Pkg() == pkg.Types && !fn.Exported() && !seen[fn] {
			seen[fn] = true
			f.samePkg = append(f.samePkg, fn)
		}
		return true
	})
	sort.Slice(f.samePkg, func(i, j int) bool { return f.samePkg[i].FullName() < f.samePkg[j].FullName() })
	return f
}

// isChargeCall reports whether call advances the simulated clock:
// (*simclock.Clock).Advance or simds.(*Ctx).Charge/ChargeBytes.
func isChargeCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil {
		return false
	}
	if fn.Name() == "Advance" && receiverNamed(fn) == "Clock" && inPackage(fn, "internal/simclock") {
		return true
	}
	return isMethodOf(fn, "internal/simds", "Ctx", "Charge") || isMethodOf(fn, "internal/simds", "Ctx", "ChargeBytes")
}
