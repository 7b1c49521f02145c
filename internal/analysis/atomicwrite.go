package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"strings"
)

// atomicWriteVocab are the lowercase substrings that mark a path expression
// (or the function writing it) as persistent-state vocabulary: a write to
// such a path must be crash-consistent. "chunk" and "manifest" cover the
// incremental checkpoint store, whose content-addressed chunk files and
// manifests are exactly the artifacts a restore trusts.
var atomicWriteVocab = []string{"state", "checkpoint", "snapshot", "chunk", "manifest"}

// AtomicWrite returns the analyzer that forces state and checkpoint writes
// through the sanctioned helpers of internal/atomicio: WriteFile's
// tmp+rename, and the Slots writer's checksummed records in two slot files
// written alternately. A plain os.WriteFile truncates the destination
// before writing, and a file opened for writing is overwritten in place, so
// a crash mid-write leaves a torn file — and a torn checkpoint is exactly
// the artifact the dispatcher's failover protocol trusts to restore a shard.
//
// The check is a small intra-procedural taint pass: an os.WriteFile or
// os.Create call, or an os.OpenFile call whose flags ask for write access
// (O_WRONLY or O_RDWR, or flags computed at run time), is flagged when its path argument mentions state
// vocabulary ("state", "checkpoint", "snapshot", "chunk", "manifest" — as an
// identifier, a selected field, or a called function's name), when the path
// flows through local
// assignments from such an expression (`path := d.statePath(i); tmp := path
// + ".tmp"`), or when the enclosing function's own name carries the
// vocabulary. Functions named in sanctioned — the helpers themselves, keyed
// like the nopanic allowlist ("pkgpath.Func", "pkgpath.(Type).Method") —
// are exempt.
func AtomicWrite(sanctioned map[string]bool) *Analyzer {
	a := &Analyzer{
		Name: "atomicwrite",
		Doc:  "flags os.WriteFile/os.Create/os.OpenFile-for-writing on state/checkpoint paths outside the sanctioned atomicio helpers (tmp+rename, checksummed slots)",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if sanctioned[funcKey(pass.Pkg, fn)] {
					continue
				}
				checkAtomicWrites(pass, fn)
			}
		}
	}
	return a
}

// vocabWord reports whether a name contains state vocabulary.
func vocabWord(name string) bool {
	lower := strings.ToLower(name)
	for _, w := range atomicWriteVocab {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}

// checkAtomicWrites flags non-atomic writes to tainted paths in one
// function.
func checkAtomicWrites(pass *Pass, fn *ast.FuncDecl) {
	tainted := map[string]bool{}
	// Two propagation passes are enough for the straight-line chains the
	// repo uses (path := statePath(...); tmp := path + ".tmp").
	for i := 0; i < 2; i++ {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			rhsTainted := false
			for _, rhs := range as.Rhs {
				if exprMentionsVocab(pass, rhs, tainted) {
					rhsTainted = true
					break
				}
			}
			if !rhsTainted {
				return true
			}
			for _, lhs := range as.Lhs {
				if key, _ := exprKey(pass, lhs); key != "" {
					tainted[key] = true
				}
			}
			return true
		})
	}
	fnNameTainted := vocabWord(fn.Name.Name)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		writer := osWriteCall(pass, call)
		if writer == "" || len(call.Args) == 0 {
			return true
		}
		if fnNameTainted || exprMentionsVocab(pass, call.Args[0], tainted) {
			pass.Reportf(call.Pos(), "os.%s writes a state/checkpoint path in place; a crash mid-write leaves a torn file — use a sanctioned atomicio helper (WriteFile's tmp+rename, or Slots' checksummed slot records)", writer)
		}
		return true
	})
}

// osWriteCall returns "WriteFile", "Create" or "OpenFile" when the call is
// the corresponding os function and writes (for OpenFile: its flags ask for
// write access), else "".
func osWriteCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "os" {
		return ""
	}
	switch sel.Sel.Name {
	case "WriteFile", "Create":
		return sel.Sel.Name
	case "OpenFile":
		if len(call.Args) > 1 && opensForWrite(pass, call.Args[1]) {
			return sel.Sel.Name
		}
	}
	return ""
}

// opensForWrite reports whether an os.OpenFile flag expression asks for
// write access: a constant with O_WRONLY or O_RDWR set. Flags computed at
// run time are taken to ask for it.
func opensForWrite(pass *Pass, flags ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[flags]
	if !ok || tv.Value == nil {
		return true
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return !exact || v&int64(os.O_WRONLY|os.O_RDWR) != 0
}

// exprMentionsVocab reports whether an expression mentions state vocabulary
// directly (identifier, selected field, or called function name) or through
// a tainted local.
func exprMentionsVocab(pass *Pass, e ast.Expr, tainted map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if vocabWord(n.Name) {
				found = true
			} else if key, _ := exprKey(pass, n); key != "" && tainted[key] {
				found = true
			}
		case *ast.SelectorExpr:
			if vocabWord(n.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}
