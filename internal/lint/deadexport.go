package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// deadexportCheck reports an exported function or method declared under
// internal/ that nothing but tests uses. Such code costs a reader and a
// maintainer the same as live code and protects nothing; the fix, in order,
// is to delete it (with its tests and the unexported helpers only it
// reaches), to move it into the _test.go file that uses it as an oracle,
// or to unexport it when only its own package's tests call it.
//
// A declaration is not a finding when:
//
//	(a) non-test code anywhere in the module uses it (its own body aside);
//	(b) it is a method of a type reachable from the module root package's
//	    exported API (aliases, exported fields, params and results,
//	    transitively): that method is public API;
//	(c) it makes its type satisfy an interface of the loaded program, or
//	    one the standard library calls implicitly (fmt.Stringer, error,
//	    the json and text (un)marshalers);
//	(d) a _test.go file of another package references it.
//
// The loader skips test files, so (d) parses them here; the match is by
// name (pkg.Func for functions, .Method for methods) in test files that
// import the declaring package.
type deadexportCheck struct{}

func (deadexportCheck) Name() string { return "deadexport" }

func (deadexportCheck) Run(p *Program) []Diagnostic {
	used := usedFuncs(p)
	api := apiTypes(p)
	var cands []*types.Func
	for _, pkg := range p.Pkgs {
		if !inScope(pkg.Rel, []string{"internal"}) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] {
					continue
				}
				if named := recvTypeOf(fn); named != nil && api[named.Obj()] {
					continue
				}
				cands = append(cands, fn)
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	ifaces := interfacesByMethod(p)
	refs, err := testRefs(p)
	if err != nil {
		return []Diagnostic{{Check: "deadexport", File: ".", Message: err.Error()}}
	}
	var diags []Diagnostic
	for _, fn := range cands {
		named := recvTypeOf(fn)
		if named != nil && satisfiesInterface(fn, named, ifaces) {
			continue
		}
		if refs[testRef{fn.Pkg().Path(), fn.Name(), named != nil}] {
			continue
		}
		name := shortName(fn)
		if named != nil {
			name = fn.Pkg().Name() + "." + name
		}
		diags = append(diags, p.Diag("deadexport", fn.Pos(),
			"%s is exported but nothing outside tests uses it; delete it, move it into the test that uses it, or unexport it", name))
	}
	return diags
}

// usedFuncs is rule (a): every function or method some non-test code of the
// module refers to, not counting a declaration's references to itself.
func usedFuncs(p *Program) map[*types.Func]bool {
	used := make(map[*types.Func]bool)
	for _, pkg := range p.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if src := p.funcs[fn]; src != nil && id.Pos() >= src.Decl.Pos() && id.Pos() < src.Decl.End() {
				continue
			}
			used[fn] = true
		}
	}
	return used
}

// recvNamed returns the declared (uninstantiated) receiver type of a
// method, or nil for a plain function.
func recvTypeOf(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// apiTypes is rule (b): the named types reachable from the root package's
// exported declarations.
func apiTypes(p *Program) map[*types.TypeName]bool {
	seen := make(map[*types.TypeName]bool)
	var walk func(t types.Type)
	walkTuple := func(tup *types.Tuple) {
		for i := 0; i < tup.Len(); i++ {
			walk(tup.At(i).Type())
		}
	}
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			obj := t.Origin().Obj()
			if seen[obj] {
				return
			}
			seen[obj] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walkTuple(t.Params())
			walkTuple(t.Results())
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, pkg := range p.Pkgs {
		if pkg.Rel != "" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				walk(obj.Type())
			}
		}
	}
	return seen
}

// implicitInterfaces are the methods the standard library calls without
// the program naming the interface: rule (c) for fmt, errors, encoding/json
// and encoding (text), keyed by name with the signature they must have.
var implicitInterfaces = map[string]string{
	"String":        "func() string",
	"Error":         "func() string",
	"MarshalJSON":   "func() ([]byte, error)",
	"UnmarshalJSON": "func([]byte) error",
	"MarshalText":   "func() ([]byte, error)",
	"UnmarshalText": "func([]byte) error",
}

// interfacesByMethod indexes every method-set interface the loaded program
// mentions (declared, written as a type, or in the signature of anything
// it calls) by the names of its methods, for rule (c).
func interfacesByMethod(p *Program) map[string][]*types.Interface {
	seen := make(map[*types.Interface]bool)
	idx := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx[name] = append(idx[name], it)
		}
	}
	addTuple := func(tup *types.Tuple) {
		for i := 0; i < tup.Len(); i++ {
			add(tup.At(i).Type())
		}
	}
	for _, pkg := range p.Pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.Type == nil {
				continue
			}
			if sig, ok := tv.Type.(*types.Signature); ok {
				addTuple(sig.Params())
				addTuple(sig.Results())
				continue
			}
			add(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return idx
}

// satisfiesInterface is rule (c) for method fn of type named.
func satisfiesInterface(fn *types.Func, named *types.Named, ifaces map[string][]*types.Interface) bool {
	if sig, ok := implicitInterfaces[fn.Name()]; ok && types.TypeString(fn.Type(), nil) == sig {
		return true
	}
	for _, it := range ifaces[fn.Name()] {
		// Implements needs an instantiated type, so a generic receiver is
		// kept on the method name alone.
		if named.TypeParams().Len() > 0 || types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// testRef names what a test file refers to: pkg.Name for a function, or a
// .Name selector on a value in a file that imports pkg for a method.
type testRef struct {
	pkg, name string
	method    bool
}

// testRefs is rule (d): the references the module's _test.go files make
// into module packages other than their own.
func testRefs(p *Program) (map[testRef]bool, error) {
	refs := make(map[testRef]bool)
	fset := token.NewFileSet()
	err := walkModuleDirs(p.Root, func(dir string) error {
		rel, err := filepath.Rel(p.Root, dir)
		if err != nil {
			return err
		}
		own := p.ModPath
		if rel != "." {
			own += "/" + filepath.ToSlash(rel)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return err
		}
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imported := make(map[string]string) // local name -> import path
			for _, spec := range f.Imports {
				ipath, _ := strconv.Unquote(spec.Path.Value)
				if ipath == own || !strings.HasPrefix(ipath, p.ModPath+"/") {
					continue
				}
				local := ipath[strings.LastIndex(ipath, "/")+1:]
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imported[local] = ipath
			}
			if len(imported) == 0 {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] != "" {
					refs[testRef{imported[x.Name], sel.Sel.Name, false}] = true
					return true
				}
				for _, ipath := range imported {
					refs[testRef{ipath, sel.Sel.Name, true}] = true
				}
				return true
			})
		}
		return nil
	})
	return refs, err
}

// walkModuleDirs calls fn for every directory of the module rooted at root,
// skipping testdata, vendor, hidden and underscore directories and nested
// modules, the same tree Load parses.
func walkModuleDirs(root string, fn func(dir string) error) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			// A nested module is its own analysis unit; skip it.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		return fn(path)
	})
}
