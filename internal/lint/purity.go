package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The snapshot-purity analyzer statically enforces the recovery.SnapshotServer
// reader contract: the closure OpenSnapshotReader returns is called from many
// goroutines concurrently with the writer, so it — and every function it can
// reach — may touch only the frozen view and values captured at build time.
// At runtime the contract is enforced by crashing late (simds.SnapshotCtx
// carries a nil Heap and nil Clock, so an impure reader panics mid-request);
// this analyzer decides it at build time instead.
//
// Within the closure and all statically reachable callees it forbids:
//
//   - writes to package-level variables, to the enclosing method's receiver
//     state, and (inside the closure itself) to any captured variable;
//   - allocation and release on the simulated heap ((*heap.Heap).Alloc/Free);
//   - clock access (any simclock.Clock method, time.Now, time.Since) —
//     except through simds.(*Ctx).Charge/ChargeBytes, which are nil-Clock
//     guarded by construction and deliberately free under a snapshot context;
//   - mutation of the address space the view lives in (the mem.AddressSpace
//     write/map family) — a frozen MVCC version must stay frozen.
//
// Reachability is the static call graph over identifier and selector calls
// resolved by go/types, chased cross-package through the loaded module.
// Soundness caveats (documented in DESIGN.md): calls through function-typed
// values and interface methods are not resolved, and writes through pointers
// that alias receiver or global state are not tracked. Both are narrow in
// this codebase and covered dynamically by the nil-heap panic and the
// CheckFrozen oracle.
var purityAnalyzer = &Analyzer{
	Name: "snapshot-purity",
	Doc:  "functions reachable from SnapshotServer reader closures must not write shared state, allocate, or touch the clock",
	Run:  runPurity,
}

// asMutators is the mem.AddressSpace write/map family: calling any of these
// on the frozen view (or anything reachable from it) breaks snapshot
// isolation.
var asMutators = map[string]bool{
	"WriteAt": true, "WriteU8": true, "WriteU32": true, "WriteU64": true,
	"WritePtr": true, "Zero": true, "FlipBit": true, "Map": true,
	"Unmap": true, "Grow": true, "MovePages": true, "UnmovePages": true,
	"CopyPages": true, "ClearDirty": true,
}

func runPurity(r *Repo) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range r.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != "OpenSnapshotReader" {
					continue
				}
				for _, lit := range returnedClosures(fd) {
					out = append(out, checkReaderClosure(r, pkg, fd, lit)...)
				}
			}
		}
	}
	return out
}

// returnedClosures collects the function literals returned by fd — the
// reader closures whose purity the contract is about. The method body itself
// runs on the writer thread and is exempt.
func returnedClosures(fd *ast.FuncDecl) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if lit, ok := ast.Unparen(res).(*ast.FuncLit); ok {
				lits = append(lits, lit)
			}
		}
		return true
	})
	return lits
}

// purityScope is one body under the purity check: the root closure (nil fn
// and decl) or a reachable function/method.
type purityScope struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Pkg
}

func checkReaderClosure(r *Repo, pkg *Pkg, method *ast.FuncDecl, lit *ast.FuncLit) []Diagnostic {
	var out []Diagnostic
	add := func(pos token.Pos, msg string) {
		file, line, col := r.Position(pos)
		out = append(out, Diagnostic{Analyzer: "snapshot-purity", File: file, Line: line, Col: col, Msg: msg})
	}

	// Walk the closure body, then BFS through resolved callees with bodies in
	// the loaded module. The visited set keys on *types.Func, which the shared
	// type-checking universe keeps identical across packages.
	visited := map[*types.Func]bool{}
	queue := []purityScope{{pkg: pkg}}
	for len(queue) > 0 {
		sc := queue[0]
		queue = queue[1:]

		var body *ast.BlockStmt
		var where string
		if sc.decl == nil {
			body = lit.Body
			where = fmt.Sprintf("reader closure of %s", readerName(pkg, method))
		} else {
			body = sc.decl.Body
			where = fmt.Sprintf("%s (reachable from %s's reader closure)", sc.fn.Name(), readerName(pkg, method))
		}

		callees := checkPurityBody(sc, body, lit, where, add)
		// Deterministic BFS order: chase newly discovered callees by name.
		sort.Slice(callees, func(i, j int) bool { return callees[i].FullName() < callees[j].FullName() })
		for _, fn := range callees {
			if visited[fn] {
				continue
			}
			visited[fn] = true
			if src := r.FuncDecl(fn); src != nil && src.Decl.Body != nil {
				queue = append(queue, purityScope{fn: fn, decl: src.Decl, pkg: src.Pkg})
			}
		}
	}
	return out
}

// readerName renders the receiver-qualified method name for messages.
func readerName(pkg *Pkg, method *ast.FuncDecl) string {
	if fn, ok := pkg.Info.Defs[method.Name].(*types.Func); ok {
		if recv := receiverNamed(fn); recv != "" {
			return recv + ".OpenSnapshotReader"
		}
	}
	return "OpenSnapshotReader"
}

// checkPurityBody scans one body for contract violations and returns the
// callees to chase. sc.decl is nil when body is the root closure.
func checkPurityBody(sc purityScope, body *ast.BlockStmt, root *ast.FuncLit, where string, add func(token.Pos, string)) []*types.Func {
	info := sc.pkg.Info

	// The receiver variable of the enclosing method, for receiver-write
	// detection in reachable methods.
	var recvObj types.Object
	if sc.decl != nil && sc.decl.Recv != nil && len(sc.decl.Recv.List) == 1 && len(sc.decl.Recv.List[0].Names) == 1 {
		recvObj = info.Defs[sc.decl.Recv.List[0].Names[0]]
	}

	checkWrite := func(lhs ast.Expr) {
		target := ast.Unparen(lhs)
		if id, ok := target.(*ast.Ident); ok && id.Name == "_" {
			return
		}
		rid := rootIdent(target)
		if rid == nil {
			return
		}
		obj := objOf(info, rid)
		if obj == nil {
			return
		}
		switch {
		case isPackageLevel(obj):
			add(lhs.Pos(), fmt.Sprintf("%s writes package-level state %s; snapshot readers must be pure", where, obj.Name()))
		case recvObj != nil && obj == recvObj && rid != target:
			// A selector/index path rooted at the receiver mutates shared
			// structure state (rebinding the receiver ident itself is local).
			add(lhs.Pos(), fmt.Sprintf("%s writes receiver state through %s; snapshot readers must be pure", where, obj.Name()))
		case sc.decl == nil && obj.Pos().IsValid() && (obj.Pos() < root.Pos() || obj.Pos() >= root.End()):
			// Inside the root closure: assignment to a variable declared
			// outside the closure is a write to captured state.
			add(lhs.Pos(), fmt.Sprintf("%s writes captured variable %s; snapshot readers must be pure", where, obj.Name()))
		}
	}

	var callees []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if node.Tok == token.DEFINE {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.Defs[id] != nil {
						continue // fresh local binding
					}
				}
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(node.X)
		case *ast.CallExpr:
			fn := calleeOf(info, node)
			if fn == nil {
				return true
			}
			switch {
			case isMethodOf(fn, "internal/simds", "Ctx", "Charge"), isMethodOf(fn, "internal/simds", "Ctx", "ChargeBytes"):
				// Whitelisted: nil-Clock guarded, free under SnapshotCtx.
				return true
			case isMethodOf(fn, "internal/heap", "Heap", "Alloc"):
				add(node.Pos(), fmt.Sprintf("%s calls heap.Alloc; snapshot readers must not allocate simulated memory", where))
			case isMethodOf(fn, "internal/heap", "Heap", "Free"):
				add(node.Pos(), fmt.Sprintf("%s calls heap.Free; snapshot readers must not release simulated memory", where))
			case receiverNamed(fn) == "Clock" && inPackage(fn, "internal/simclock"):
				add(node.Pos(), fmt.Sprintf("%s calls Clock.%s; snapshot readers must not touch the clock", where, fn.Name()))
			case isPkgFunc(fn, "time", "Now"), isPkgFunc(fn, "time", "Since"):
				add(node.Pos(), fmt.Sprintf("%s reads the wall clock via time.%s", where, fn.Name()))
			case receiverNamed(fn) == "AddressSpace" && inPackage(fn, "internal/mem") && asMutators[fn.Name()]:
				add(node.Pos(), fmt.Sprintf("%s calls AddressSpace.%s; the frozen view must not be mutated", where, fn.Name()))
			default:
				if !seen[fn] {
					seen[fn] = true
					callees = append(callees, fn)
				}
			}
		}
		return true
	})
	return callees
}
