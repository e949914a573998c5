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
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("tokenmagic/internal/selector").
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the module's packages without any
// go/packages dependency: module-internal imports are resolved by loading
// the corresponding directory first (topological order, cycle-checked), and
// everything else (the standard library) is type-checked from source via
// go/importer's "source" compiler.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	RootDir    string

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.Importer
}

// NewLoader builds a loader rooted at the module directory containing
// go.mod. Cgo is disabled for the whole process so the source importer
// resolves pure-Go variants of cgo-capable stdlib packages (net, os/user).
func NewLoader(rootDir string) (*Loader, error) {
	abs, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		RootDir:    abs,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: cannot read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// RelPath returns filename relative to the module root (slash-separated),
// or the input unchanged when it lies outside the root.
func (l *Loader) RelPath(filename string) string {
	rel, err := filepath.Rel(l.RootDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// Packages returns every module-local package loaded so far (explicitly or
// as a dependency of an explicit load), sorted by import path: the
// whole-program set Run hands to every pass.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LoadAll loads every package under the module root, skipping testdata,
// hidden directories and directories without non-test Go files. Returned
// packages are sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.RootDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.RootDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir under its natural module import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.RootDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.RootDir)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.LoadDirAs(abs, path)
}

// LoadDirAs loads the package in dir under an explicit import path. The
// golden-file tests use this to place fixture packages inside (or outside)
// an analyzer's scope.
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, err := parseDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &loaderImporter{l: l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", importPath, typeErrs[0])
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory with comments.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// Respect //go:build constraints and GOOS/GOARCH file suffixes, or
		// platform-gated pairs (lock_unix.go / lock_stub.go) both land in the
		// same package and redeclare each other.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s mixes packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter resolves module-internal imports through the loader and
// delegates everything else to the standard-library source importer.
type loaderImporter struct{ l *Loader }

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	l := im.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := l.RootDir
		if rel != "" {
			dir = filepath.Join(l.RootDir, filepath.FromSlash(rel))
		}
		pkg, err := l.LoadDirAs(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
