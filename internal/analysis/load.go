package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files (*_test.go) are excluded: the invariants guard
// library and command code, and tests legitimately use clocks, unseeded
// randomness, and panics. So are files the host's build excludes by their
// build constraints or their _GOOS/_GOARCH name, as the compiler does: a
// package with one file per platform type-checks as the host builds it.
type Package struct {
	// Path is the import path ("rrsched/internal/sim").
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset is the module-wide file set (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test files, in filename order.
	Files []*ast.File
	// Filenames are the absolute filenames, parallel to Files.
	Filenames []string
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded module: every non-test package, parsed and
// type-checked, in dependency (topological) order.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Root is the absolute directory containing go.mod.
	Root string
	Fset *token.FileSet
	Pkgs []*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if rest, ok := strings.CutPrefix(ln, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every non-test package under root
// (which must contain go.mod). Directories named testdata or vendor, and
// hidden or underscore-prefixed directories, are skipped. Stdlib imports are
// resolved with the standard gc importer (falling back to the source
// importer); module-internal imports are resolved against the packages being
// loaded, in topological order, so no build step or external tooling is
// needed.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := &Module{Path: modPath, Root: root, Fset: fset}

	// Discover and parse package directories.
	byPath := map[string]*Package{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pkg, err := parseDir(fset, root, modPath, path)
		if err != nil {
			return err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Topologically order by module-internal imports.
	order, err := toposort(byPath, modPath)
	if err != nil {
		return nil, err
	}

	// Type-check in dependency order.
	imp := &moduleImporter{
		fset:   fset,
		loaded: map[string]*types.Package{},
	}
	for _, pkg := range order {
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.loaded[pkg.Path] = tpkg
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// parseDir parses the non-test Go files of one directory, returning nil if
// there are none.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, n := range names {
		filename := filepath.Join(dir, n)
		f, err := parser.ParseFile(fset, filename, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, filename)
	}
	return pkg, nil
}

// moduleImports returns the package's imports that live in this module.
func moduleImports(pkg *Package, modPath string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// toposort orders packages so every module-internal import precedes its
// importer, failing on cycles.
func toposort(byPath map[string]*Package, modPath string) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0 // unvisited
		gray  = 1 // on the stack
		black = 2 // done
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analysis: import cycle: %s -> %s", strings.Join(chain, " -> "), path)
		}
		state[path] = gray
		pkg := byPath[path]
		if pkg != nil {
			for _, dep := range moduleImports(pkg, modPath) {
				if _, ok := byPath[dep]; !ok {
					return fmt.Errorf("analysis: %s imports %s, which has no Go files in the module", path, dep)
				}
				if err := visit(dep, append(chain, path)); err != nil {
					return err
				}
			}
		}
		state[path] = black
		if pkg != nil {
			order = append(order, pkg)
		}
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the already
// type-checked packages and everything else through the standard importers.
type moduleImporter struct {
	fset   *token.FileSet
	loaded map[string]*types.Package
	gc     types.Importer
	source types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.loaded[path]; ok {
		return pkg, nil
	}
	if m.gc == nil {
		m.gc = importer.ForCompiler(m.fset, "gc", nil)
	}
	pkg, gcErr := m.gc.Import(path)
	if gcErr == nil {
		return pkg, nil
	}
	// Fall back to type-checking the dependency from source (handles
	// toolchains without prebuilt export data).
	if m.source == nil {
		m.source = importer.ForCompiler(m.fset, "source", nil)
	}
	pkg, srcErr := m.source.Import(path)
	if srcErr != nil {
		return nil, fmt.Errorf("import %q: %v (gc importer: %v)", path, srcErr, gcErr)
	}
	return pkg, nil
}
