package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The dirty-bit soundness analyzer guards the invariant that makes
// incremental preservation's delta checksums trustworthy: every content
// mutation of a frame-backed buffer must leave tracking evidence — the
// soft-dirty bit and the write-generation stamp — or the preserve machinery
// will checksum-skip a page whose bytes changed. At runtime the invariant is
// only audited probabilistically (AuditIncremental shadow checksums); this
// analyzer checks the write paths themselves.
//
// Scope: packages named mem and kernel (the only owners of Frame buffers).
// A hazard is a statement that can change bytes reachable from a Frame's
// Data field:
//
//   - an in-place write into the buffer f.Data (or a local derived from it
//     in the same function): an indexed store or op-assignment, ++/--,
//     copy() with the buffer as destination, or clear();
//   - assignment to the Data field itself.
//
// A function containing hazards must also contain sanction evidence. An
// in-place write needs a call to the materialize or write funnels: a frame
// buffer may be shared copy-on-write with frozen copies (snapshot views,
// clones, fork copies), and only materialize copies it before the first
// mutation, so marking the frame dirty or stamping it does not make an
// in-place write safe. A Data replacement installs a new buffer and needs
// only tracking evidence: a materialize/write/stamp call, an explicit
// assignment to a Dirty or Gen field, or a Frame composite literal with an
// explicit Dirty field. Evidence is per-function — the funnels themselves
// carry their own evidence, so the rule bottoms out.
//
// Caveat (documented in DESIGN.md): the derived-buffer taint is local and
// syntactic; a Data slice smuggled through a field, channel, or call
// argument is not tracked. AuditIncremental remains the dynamic backstop.
var dirtyBitAnalyzer = &Analyzer{
	Name: "dirty-bit",
	Doc:  "frame-backed buffer writes in mem/kernel must flow through materialize/dirty-marking paths",
	Run:  runDirtyBit,
}

func runDirtyBit(r *Repo) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range r.Pkgs {
		if name := pkg.Types.Name(); name != "mem" && name != "kernel" {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, dirtyBitInFunc(r, pkg, fd)...)
			}
		}
	}
	return out
}

// isFrameType reports whether t (after pointer deref) is a named struct
// "Frame" with Data []byte and Dirty bool fields — structural detection, so
// the check works on any package laying out frames this way.
func isFrameType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Frame" {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasData, hasDirty bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "Data":
			if s, ok := f.Type().(*types.Slice); ok {
				if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
					hasData = true
				}
			}
		case "Dirty":
			if b, ok := f.Type().(*types.Basic); ok && b.Kind() == types.Bool {
				hasDirty = true
			}
		}
	}
	return hasData && hasDirty
}

// frameDataSel reports whether e is a selector f.Data (possibly sliced or
// indexed) on a Frame-typed base, returning the selector when so.
func frameDataSel(info *types.Info, e ast.Expr) *ast.SelectorExpr {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name == "Data" && isFrameType(info.TypeOf(x.X)) {
			return x
		}
	case *ast.SliceExpr:
		return frameDataSel(info, x.X)
	case *ast.IndexExpr:
		return frameDataSel(info, x.X)
	}
	return nil
}

func dirtyBitInFunc(r *Repo, pkg *Pkg, fd *ast.FuncDecl) []Diagnostic {
	info := pkg.Info

	// Pass 1: local taint (vars bound to a Frame's Data buffer) and sanction
	// evidence: tracking (dirty bit or stamp maintained) and copy-on-write
	// (a materialize/write call, which also tracks).
	tainted := map[types.Object]bool{}
	evidence, cow := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i, lhs := range node.Lhs {
					if frameDataSel(info, node.Rhs[i]) == nil {
						continue
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := objOf(info, id); obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
			// Explicit tracking-state management counts as evidence.
			for _, lhs := range node.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if (sel.Sel.Name == "Dirty" || sel.Sel.Name == "Gen") && isFrameType(info.TypeOf(sel.X)) {
						evidence = true
					}
				}
			}
		case *ast.CompositeLit:
			if isFrameType(info.TypeOf(node)) {
				for _, el := range node.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Dirty" {
							evidence = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if fn := calleeOf(info, node); fn != nil && fn.Pkg() == pkg.Types {
				switch fn.Name() {
				case "materialize", "write":
					evidence, cow = true, true
				case "stamp":
					evidence = true
				}
			}
		}
		return true
	})

	// Pass 2: hazards.
	var out []Diagnostic
	add := func(pos token.Pos, msg string) {
		file, line, col := r.Position(pos)
		out = append(out, Diagnostic{Analyzer: "dirty-bit", File: file, Line: line, Col: col, Msg: msg})
	}
	isFrameBuf := func(e ast.Expr) bool {
		if frameDataSel(info, e) != nil {
			return true
		}
		if id := rootIdent(ast.Unparen(e)); id != nil {
			if obj := objOf(info, id); obj != nil && tainted[obj] {
				return true
			}
		}
		return false
	}
	hazard := func(pos token.Pos, what string) {
		if evidence {
			return
		}
		add(pos, fmt.Sprintf("%s %s without materialize/dirty-marking evidence; delta checksums will skip the change", fd.Name.Name, what))
	}
	inPlace := func(pos token.Pos, what string) {
		if evidence && !cow {
			add(pos, fmt.Sprintf("%s %s in place without a materialize/write call; a buffer shared copy-on-write would change under its frozen copies", fd.Name.Name, what))
			return
		}
		hazard(pos, what)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				switch t := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					if isFrameBuf(t.X) {
						inPlace(lhs.Pos(), "writes into a frame-backed buffer")
					}
				case *ast.SelectorExpr:
					if t.Sel.Name == "Data" && isFrameType(info.TypeOf(t.X)) {
						hazard(lhs.Pos(), "replaces a frame's Data buffer")
					}
				}
			}
		case *ast.IncDecStmt:
			if t, ok := ast.Unparen(node.X).(*ast.IndexExpr); ok && isFrameBuf(t.X) {
				inPlace(node.X.Pos(), "writes into a frame-backed buffer")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(node.Args) > 0 && isFrameBuf(node.Args[0]) {
					switch {
					case id.Name == "copy" && len(node.Args) == 2:
						inPlace(node.Pos(), "copies into a frame-backed buffer")
					case id.Name == "clear":
						inPlace(node.Pos(), "clears a frame-backed buffer")
					}
				}
			}
		}
		return true
	})
	return out
}
