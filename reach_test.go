package mpidetect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// keptUnreached names the production symbols under internal/ that no
// production code reaches but that stay, each with the reason. Keys are
// "internal/<pkg>.<Name>" or "internal/<pkg>.<Type>.<Method>". An entry
// that production reaches again, or that is no longer declared, fails
// the guard, so the list cannot go stale.
var keptUnreached = map[string]string{
	"internal/ast.Comm":                  "AST builder the mpisim tests write programs with",
	"internal/ast.Ne":                    "AST builder the mpisim tests write programs with",
	"internal/ast.While":                 "AST builder the mpisim and serve tests write programs with",
	"internal/autodiff.Tape.AddRow":      "unfused op the nn tests check the fused layers against",
	"internal/autodiff.Tape.MulCol":      "unfused op the nn tests check the fused layers against",
	"internal/autodiff.Tape.ArenaFloats": "arena counter behind the gnn inference arena ceiling test",
	"internal/graphs.Graph.NumByKind":    "node census the graphs and gnn tests assert on",
	"internal/intern.Table.TokenOf":      "reverse lookup the intern and graphs tests assert on",
	"internal/ir.Module.NumInstrs":       "size measure the passes preservation tests compare",
	"internal/ir.ReversePostorder":       "reference block order the ir and ir2vec tests compare against",
	"internal/tensor.Equalish":           "tolerance comparison of the tensor and autodiff tests",
	"internal/tensor.FromSlice":          "matrix literal of the tensor, autodiff and nn tests",
	"internal/tensor.Mat.Clone":          "copy the tensor and autodiff tests snapshot results with",
	"internal/tensor.VecDist":            "distance the tensor and ir2vec tests compare embeddings by",
}

// keptPackage holds test fixtures outside _test.go files, because the
// tests of several packages import them.
const keptPackage = "internal/serve/servetest"

// TestNoUnusedProductionSymbols fails on any non-test symbol under
// internal/ that production does not reach: production is every
// non-test file of cmd/, examples/ and the perfbench module. What only
// its own package's tests need belongs in a _test.go file; what must
// stay for another reason goes in keptUnreached with that reason.
func TestNoUnusedProductionSymbols(t *testing.T) {
	start := time.Now()
	dead, err := unreachedSymbols(".", []string{"perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, s := range dead {
		declared[s] = true
		if keptUnreached[s] != "" || strings.HasPrefix(s, keptPackage+".") {
			continue
		}
		t.Errorf("%s: no production code reaches it; delete it, move it to a _test.go file, or list it in keptUnreached with the reason", s)
	}
	for s := range keptUnreached {
		if !declared[s] {
			t.Errorf("keptUnreached lists %s, which production now reaches or which is gone; remove the entry", s)
		}
	}
	t.Logf("scanned in %v", time.Since(start).Round(time.Millisecond))
}

// TestReachScanner runs the scanner on a small module whose dead and
// live symbols are known.
func TestReachScanner(t *testing.T) {
	dead, err := unreachedSymbols(filepath.Join("testdata", "reachmod"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Doc.Validate", // called only from lib_test.go
		"internal/lib.Uncalled",     // called by nothing
	}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %q, want %q", dead, want)
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// reach is one scan: the module's packages type-checked from their
// non-test files, the standard library read from export data, and the
// declaration of every package-level object and method under internal/.
type reach struct {
	fset    *token.FileSet
	module  string
	checked map[string]*types.Package
	gc      types.Importer
	decls   map[types.Object]ast.Node
	infos   map[ast.Node]*types.Info
	roots   []ast.Node // production files, init functions and blank vars
	// methodSigs holds, by name, the signature of every interface
	// method declared anywhere the scan sees, the standard library
	// included: a method that matches one may be called dynamically.
	methodSigs map[string][]*types.Signature
	live       map[types.Object]bool
	work       []types.Object
}

func (r *reach) Import(path string) (*types.Package, error) {
	if p := r.checked[path]; p != nil {
		return p, nil
	}
	return r.gc.Import(path)
}

// scan type-checks the module at dir and the extra modules (given
// relative to dir) and marks live everything production reaches. Every
// package outside internal/ is production.
func scan(dir string, extra []string) (*reach, error) {
	pkgs, err := goList(dir, "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	if err != nil {
		return nil, err
	}
	modPath, err := exec.Command("go", "list", "-C", dir, "-m").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -m: %v", err)
	}
	r := &reach{
		fset:       token.NewFileSet(),
		module:     strings.TrimSpace(string(modPath)),
		checked:    map[string]*types.Package{},
		decls:      map[types.Object]ast.Node{},
		infos:      map[ast.Node]*types.Info{},
		methodSigs: map[string][]*types.Signature{},
		live:       map[types.Object]bool{},
	}

	// Extra modules import the module through a replace directive; their
	// packages are read with go/build so no go command runs inside them.
	var extraPkgs []*build.Package
	std := map[string]bool{}
	for _, e := range extra {
		bp, err := build.ImportDir(filepath.Join(dir, e), 0)
		if err != nil {
			return nil, err
		}
		extraPkgs = append(extraPkgs, bp)
		for _, imp := range bp.Imports {
			if !strings.HasPrefix(imp, r.module+"/") {
				std[imp] = true
			}
		}
	}
	for _, p := range pkgs {
		if p.Standard {
			std[p.ImportPath] = true
		}
	}
	stdList := make([]string, 0, len(std))
	for p := range std {
		stdList = append(stdList, p)
	}
	sort.Strings(stdList)
	exports, err := goList(dir, append([]string{"-deps", "-export", "-json=ImportPath,Export"}, stdList...)...)
	if err != nil {
		return nil, err
	}
	exportFile := map[string]string{}
	for _, p := range exports {
		exportFile[p.ImportPath] = p.Export
	}
	r.gc = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exportFile[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	for _, path := range stdList {
		p, err := r.gc.Import(path)
		if err != nil {
			return nil, err
		}
		r.addInterfaces(p.Scope())
	}
	r.addInterfaces(types.Universe)
	// errors.Is, As and Unwrap look these methods up through interfaces
	// declared inside their function bodies, which export data omits.
	errT := types.Universe.Lookup("error").Type()
	result := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	boolT := types.Typ[types.Bool]
	for name, sig := range map[string]*types.Signature{
		"Unwrap": types.NewSignatureType(nil, nil, nil, nil, result(errT), false),
		"Is":     types.NewSignatureType(nil, nil, nil, result(errT), result(boolT), false),
		"As":     types.NewSignatureType(nil, nil, nil, result(types.Universe.Lookup("any").Type()), result(boolT), false),
	} {
		r.methodSigs[name] = append(r.methodSigs[name], sig)
	}

	// go list -deps orders each package after its dependencies.
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		files, err := r.check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(p.ImportPath, r.module+"/internal/") {
			r.index(files)
		} else {
			for _, f := range files {
				r.roots = append(r.roots, f)
			}
		}
	}
	for _, bp := range extraPkgs {
		files, err := r.check(bp.ImportPath, bp.Dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			r.roots = append(r.roots, f)
		}
	}

	for _, n := range r.roots {
		r.markUses(n)
	}
	for len(r.work) > 0 {
		obj := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		r.markUses(r.decls[obj])
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); r.satisfies(m) {
						r.mark(m)
					}
				}
			}
		}
	}

	return r, nil
}

// unreachedSymbols scans the module at dir, with the extra modules (given
// relative to dir) as further production roots, and returns the sorted
// keys of the symbols under internal/ that production does not reach.
func unreachedSymbols(dir string, extra []string) ([]string, error) {
	r, err := scan(dir, extra)
	if err != nil {
		return nil, err
	}
	var dead []string
	for obj := range r.decls {
		if !r.live[obj] {
			dead = append(dead, r.key(obj))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// check parses and type-checks one package's non-test files.
func (r *reach) check(path, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(path, r.fset, files, info)
	if err != nil {
		return nil, err
	}
	r.checked[path] = pkg
	for _, f := range files {
		r.infos[f] = info
	}
	r.addInterfaces(pkg.Scope())
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			r.addMethods(it)
		}
	}
	return files, nil
}

// index records the declaration of every package-level object and
// method in files, keyed by its object. Init functions and blank
// declarations run at start-up, so they are roots instead.
func (r *reach) index(files []*ast.File) {
	for _, f := range files {
		info := r.infos[f]
		declare := func(id *ast.Ident, node ast.Node) {
			r.infos[node] = info
			if id.Name == "init" || id.Name == "_" {
				r.roots = append(r.roots, node) // run at start-up
			} else {
				r.decls[info.Defs[id]] = node
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(d.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, s)
						}
					}
				}
			}
		}
	}
}

// markUses marks live every indexed object that node refers to; a use
// of an instantiated generic function or method counts for its origin.
func (r *reach) markUses(node ast.Node) {
	info := r.infos[node]
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				r.mark(obj.Origin())
			case nil:
			default:
				r.mark(obj)
			}
		}
		return true
	})
}

func (r *reach) mark(obj types.Object) {
	if _, ok := r.decls[obj]; ok && !r.live[obj] {
		r.live[obj] = true
		r.work = append(r.work, obj)
	}
}

func (r *reach) addInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				r.addMethods(it)
			}
		}
	}
}

func (r *reach) addMethods(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		r.methodSigs[m.Name()] = append(r.methodSigs[m.Name()], m.Type().(*types.Signature))
	}
}

// satisfies reports whether m has the name and signature of a method of
// some interface, so that a call through that interface may reach it.
func (r *reach) satisfies(m *types.Func) bool {
	for _, sig := range r.methodSigs[m.Name()] {
		if sameShape(sig, m.Type().(*types.Signature)) {
			return true
		}
	}
	return false
}

// sameShape reports whether a and b are identical signatures, reading
// two parameters or results that both mention a type parameter as equal:
// generic Tier[V]'s Store(string, V) satisfies generic Backing[V]'s
// Store(string, V) once both are instantiated with the same V.
func sameShape(a, b *types.Signature) bool {
	if a.Variadic() != b.Variadic() || a.Params().Len() != b.Params().Len() || a.Results().Len() != b.Results().Len() {
		return false
	}
	same := func(x, y *types.Tuple) bool {
		for i := 0; i < x.Len(); i++ {
			xt, yt := x.At(i).Type(), y.At(i).Type()
			if !types.Identical(xt, yt) && !(generic(xt) && generic(yt)) {
				return false
			}
		}
		return true
	}
	return same(a.Params(), b.Params()) && same(a.Results(), b.Results())
}

// generic reports whether t mentions a type parameter.
func generic(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return generic(t.Elem())
	case *types.Slice:
		return generic(t.Elem())
	case *types.Array:
		return generic(t.Elem())
	case *types.Chan:
		return generic(t.Elem())
	case *types.Map:
		return generic(t.Key()) || generic(t.Elem())
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if generic(t.TypeArgs().At(i)) {
				return true
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				if generic(tup.At(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// key names obj as "internal/<pkg>.<Name>" or "internal/<pkg>.<Type>.<Method>".
func (r *reach) key(obj types.Object) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(obj.Pkg().Path(), r.module+"/") + "." + name
}
