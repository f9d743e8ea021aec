package lint

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

// Program is a parsed and type-checked Go module, the unit zslint analyzes.
type Program struct {
	ModPath string // module path from go.mod
	Root    string // absolute module root directory
	Fset    *token.FileSet
	Pkgs    []*Pkg // dependency order (imports before importers)

	funcs map[*types.Func]*FuncSource
	locks *lockWorld // lazily-built shared state for the concurrency checks
}

// Pkg is one loaded, type-checked package of the module. Test files are not
// loaded: the checks guard production invariants, and tests legitimately
// sleep, format, and spawn short-lived goroutines.
type Pkg struct {
	Path  string // full import path
	Rel   string // module-relative directory ("" for the root package)
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// FuncSource locates a function declaration in the loaded source.
type FuncSource struct {
	Pkg  *Pkg
	Decl *ast.FuncDecl
}

// FuncFor returns the declaration of a module function (nil for functions
// from outside the module and for declarations without bodies).
func (p *Program) FuncFor(obj *types.Func) *FuncSource {
	return p.funcs[obj]
}

// Position translates a token position into a module-relative file, line
// and column.
func (p *Program) Position(pos token.Pos) (file string, line, col int) {
	pp := p.Fset.Position(pos)
	file = pp.Filename
	if rel, err := filepath.Rel(p.Root, pp.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, pp.Line, pp.Column
}

// Diag builds a Diagnostic for a check at a position.
func (p *Program) Diag(check string, pos token.Pos, format string, args ...any) Diagnostic {
	file, line, col := p.Position(pos)
	return Diagnostic{
		Check:   check,
		File:    file,
		Line:    line,
		Col:     col,
		Message: fmt.Sprintf(format, args...),
	}
}

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from go.mod text.
func modulePath(gomod []byte) (string, error) {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: go.mod has no module line")
}

// Load parses and type-checks every non-test package under the module
// rooted at (or above) dir, resolving imports from outside the module with
// the stdlib source importer — no external tooling, no go command.
func Load(dir string) (*Program, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(gomod)
	if err != nil {
		return nil, err
	}

	p := &Program{
		ModPath: modPath,
		Root:    root,
		Fset:    token.NewFileSet(),
		funcs:   make(map[*types.Func]*FuncSource),
	}

	// File selection honours build tags and GOOS/GOARCH filename suffixes
	// via go/build's matcher. Cgo is disabled so stdlib dependencies (net
	// via net/http, etc.) resolve to their pure-Go variants, which the
	// source importer can type-check without invoking the cgo tool.
	ctxt := build.Default
	ctxt.CgoEnabled = false
	build.Default.CgoEnabled = false

	byPath, err := p.parseModule(&ctxt)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(modPath, byPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		prog:     p,
		checked:  make(map[string]*types.Package),
		fallback: importer.ForCompiler(p.Fset, "source", nil),
	}
	for _, pkg := range order {
		if err := p.typeCheck(pkg, imp); err != nil {
			return nil, err
		}
		imp.checked[pkg.Path] = pkg.Types
		p.Pkgs = append(p.Pkgs, pkg)
	}
	return p, nil
}

// parseModule walks the module tree and parses each package directory.
func (p *Program) parseModule(ctxt *build.Context) (map[string]*Pkg, error) {
	byPath := make(map[string]*Pkg)
	err := walkModuleDirs(p.Root, func(dir string) error {
		pkg, err := p.parseDir(ctxt, dir)
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
	if len(byPath) == 0 {
		return nil, fmt.Errorf("lint: no Go packages under %s", p.Root)
	}
	return byPath, nil
}

// parseDir parses one directory's buildable non-test Go files (nil when the
// directory holds none).
func (p *Program) parseDir(ctxt *build.Context, dir string) (*Pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := ctxt.MatchFile(dir, name)
		if err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(p.Root, dir)
	if err != nil {
		return nil, err
	}
	pkg := &Pkg{Rel: filepath.ToSlash(rel), Dir: dir, Files: files}
	if pkg.Rel == "." {
		pkg.Rel = ""
		pkg.Path = p.ModPath
	} else {
		pkg.Path = p.ModPath + "/" + pkg.Rel
	}
	return pkg, nil
}

// topoSort orders packages so every intra-module import precedes its
// importer.
func topoSort(modPath string, byPath map[string]*Pkg) ([]*Pkg, error) {
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(byPath))
	var order []*Pkg
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		pkg := byPath[path]
		for _, imp := range moduleImports(modPath, pkg) {
			if _, ok := byPath[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImports lists a package's imports that live inside the module.
func moduleImports(modPath string, pkg *Pkg) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != modPath && !strings.HasPrefix(path, modPath+"/") {
				continue
			}
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// typeCheck runs go/types over one package and indexes its functions.
func (p *Program) typeCheck(pkg *Pkg, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(pkg.Path, p.Fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("lint: type-check %s: %v", pkg.Path, typeErrs[0])
	}
	if err != nil {
		return fmt.Errorf("lint: type-check %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				p.funcs[obj] = &FuncSource{Pkg: pkg, Decl: fd}
			}
		}
	}
	return nil
}

// moduleImporter resolves module packages from the already-checked set and
// everything else (the standard library) through the source importer.
type moduleImporter struct {
	prog     *Program
	checked  map[string]*types.Package
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	if path == m.prog.ModPath || strings.HasPrefix(path, m.prog.ModPath+"/") {
		return nil, fmt.Errorf("lint: module package %s imported before it was checked", path)
	}
	return m.fallback.Import(path)
}
