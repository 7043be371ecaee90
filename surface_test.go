// The surface tests type-check the module's source and start no
// goroutine, so the race detector has nothing to see in them; they run
// in every build without it.

//go:build !race

package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "repro"

// surfaceAllowlist names the exported functions and methods under
// internal/ that no non-test code calls and that stay anyway, each with
// the test that reads it. Names are "<package under internal/>.<name>"
// or "<package>.<receiver type>.<name>".
var surfaceAllowlist = map[string]string{
	"ntt.Table.ForwardScalar":      "ntt TestVectorForwardMatchesScalar: the scalar oracle of the vector forward NTT",
	"ntt.Table.InverseScalar":      "ntt TestVectorInverseMatchesScalar: the scalar oracle of the vector inverse NTT",
	"ntt.Table.InverseLazyScalar":  "ntt TestVectorInverseMatchesScalar: the scalar oracle of the vector lazy inverse NTT",
	"ntt.Table.PointwiseMulScalar": "ntt TestVectorPointwiseMulMatchesScalar: the scalar oracle of the vector pointwise product",
	"ntt.MulAddPair128Scalar":      "ntt TestVectorAccKernelsMatchScalar: the scalar oracle of the vector key-switch accumulator",
	"ntt.MulPair128Scalar":         "ntt TestVectorAccKernelsMatchScalar: the scalar oracle of the vector seeding accumulator",
	"ntt.GaloisAccPair128Scalar":   "ntt TestVectorAccKernelsMatchScalar: the scalar oracle of the vector Galois accumulator",
	"rns.Basis.RecombineCentered":  "rns TestRecombineCenteredRange and dcrt TestTensorAccumulation: the big.Int CRT oracle",
	"dcrt.SetFaultInjector":        "dcrt TestPoolInjectedFaults and hebfv TestPoolPanicSurfacesAsBackendFailed: injects worker-pool panics",
	"pim.System.TransferBytes":     "pim TestTransferAccounting and kernels TestDeclaredBytesAreCopiedBytes: reads the host<->DPU byte counters",
}

// fieldAllowlist names the exported struct fields under internal/ that
// no non-test code type-checked here writes and that stay anyway, each
// with the reason. Names are "<package under internal/>.<type>.<field>".
var fieldAllowlist = map[string]string{
	"cpufeat.Features.NEON": "written only by cpufeat_arm64.go, which a type-check for another GOARCH does not load",
}

// TestInternalExportsHaveNonTestCallers enforces the rule doc.go states:
// internal/ cannot be imported from outside this module, so an exported
// function or method there that no non-test file uses is dead code. The
// module's non-test packages (cmd/, examples/ and benchmark/ included)
// are type-checked in one universe; a function counts as used when some
// identifier outside its own declaration refers to it, and a method also
// when it satisfies an interface method for its type. staticcheck's
// unused check reports unexported code only, which is why this exists.
func TestInternalExportsHaveNonTestCallers(t *testing.T) {
	u, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	used := u.uses()
	if err := u.markInterfaceMethods(used); err != nil {
		t.Fatal(err)
	}

	var dead []string
	declared := map[string]bool{}
	for _, d := range u.decls {
		name := surfaceName(d.fn)
		declared[name] = true
		_, allowed := surfaceAllowlist[name]
		switch {
		case used[d.fn] && allowed:
			t.Errorf("%s: allowlisted as test-only but non-test code uses it; drop the allowlist entry", name)
		case !used[d.fn] && !allowed:
			dead = append(dead, u.relPos(d.pos)+": "+name)
		}
	}
	for name := range surfaceAllowlist {
		if !declared[name] {
			t.Errorf("%s: allowlisted but not declared under internal/; drop the allowlist entry", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or move it into the test that uses it", d)
	}
}

// TestInternalFieldsHaveNonTestWriters is the field counterpart of
// TestInternalExportsHaveNonTestCallers: an exported field of a struct
// type declared under internal/ that no non-test code writes is a
// setting nothing sets. A write is an assignment or op= target (through
// index, star and paren expressions), an increment or decrement, a
// keyed or positional composite-literal element, or taking the field's
// address.
func TestInternalFieldsHaveNonTestWriters(t *testing.T) {
	u, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	written := u.writtenFields()

	var unset []string
	declared := map[string]bool{}
	for _, f := range u.fields {
		declared[f.name] = true
		reason, allowed := fieldAllowlist[f.name]
		switch {
		case allowed && reason == "":
			t.Errorf("%s: allowlisted without a reason", f.name)
		case written[f.v] && allowed:
			t.Errorf("%s: allowlisted as unwritten but non-test code writes it; drop the allowlist entry", f.name)
		case !written[f.v] && !allowed:
			unset = append(unset, u.relPos(f.v.Pos())+": "+f.name)
		}
	}
	for name := range fieldAllowlist {
		if !declared[name] {
			t.Errorf("%s: allowlisted but not declared under internal/; drop the allowlist entry", name)
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("%s has no non-test writer: delete it, or make it a constant", f)
	}
}

// moduleSurface type-checks the module once for both surface tests:
// a load takes seconds, and nothing reads a surface but to query it.
var moduleSurface = sync.OnceValues(func() (*surface, error) { return loadSurface(".") })

type surfaceDecl struct {
	fn  *types.Func
	pos token.Pos
}

type surfaceField struct {
	v    *types.Var
	name string // <package under internal/>.<type>.<field>
}

type surfacePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// surface type-checks the module's non-test packages against one shared
// set of *types.Package values, so a function or method is one object —
// one package path, receiver type and name — wherever it is used; the
// standard library comes from source.
type surface struct {
	root   string
	fset   *token.FileSet
	std    types.ImporterFrom
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*surfacePkg
	order  []*surfacePkg
	decls  []surfaceDecl
	fields []surfaceField
}

func loadSurface(root string) (*surface, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	u := &surface{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*surfacePkg{},
	}
	err = filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		u.dirs[path] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(u.dirs))
	for p := range u.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := u.check(p); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (u *surface) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

func (u *surface) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := u.dirs[path]; ok {
		p, err := u.check(path)
		if err == nil && p == nil {
			err = fmt.Errorf("%s: no non-test Go files", path)
		}
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return u.std.ImportFrom(path, dir, mode)
}

// check type-checks one module package (nil for a directory without
// non-test Go files) and records the exported functions, methods and
// struct fields it declares if it lies under internal/.
func (u *surface) check(path string) (*surfacePkg, error) {
	if p, ok := u.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(u.dirs[path], 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		u.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: u}
	if p.pkg, err = conf.Check(path, u.fset, p.files, p.info); err != nil {
		return nil, err
	}
	u.pkgs[path] = p
	u.order = append(u.order, p)
	if strings.HasPrefix(path, modulePath+"/internal/") {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					u.decls = append(u.decls, surfaceDecl{p.info.Defs[fd.Name].(*types.Func), fd.Pos()})
				}
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			prefix := strings.TrimPrefix(path, modulePath+"/internal/") + "." + name + "."
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					u.fields = append(u.fields, surfaceField{f, prefix + f.Name()})
				}
			}
		}
	}
	return p, nil
}

// writtenFields returns every struct field some non-test code writes
// (see TestInternalFieldsHaveNonTestWriters).
func (u *surface) writtenFields() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	mark := func(v *types.Var) {
		if v != nil {
			written[v.Origin()] = true
		}
	}
	for _, p := range u.order {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						mark(writeTarget(p.info, lhs))
					}
				case *ast.IncDecStmt:
					mark(writeTarget(p.info, x.X))
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						mark(writeTarget(p.info, x.X))
					}
				case *ast.CompositeLit:
					st, ok := p.info.Types[x].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v, _ := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							mark(v)
						} else {
							mark(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// writeTarget returns the struct field that an assignment to e, or &e,
// writes — looking through index, star and paren expressions — or nil.
func writeTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj().(*types.Var)
			}
			return nil
		default:
			return nil
		}
	}
}

// relPos renders pos as file:line:col relative to the module root.
func (u *surface) relPos(pos token.Pos) string {
	p := u.fset.Position(pos)
	if rel, err := filepath.Rel(u.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return p.String()
}

// uses returns every function and method some identifier refers to
// outside the function's own declaration.
func (u *surface) uses() map[*types.Func]bool {
	used := map[*types.Func]bool{}
	for _, p := range u.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	return used
}

// markInterfaceMethods marks as used each method through which a
// module type satisfies an interface: a call through the interface
// names the interface's method, not the implementation's. The
// interfaces are error, fmt.Stringer (which fmt calls unnamed), and
// every interface the module's non-test code declares, names or writes
// as a literal (hebfv.Engine, bfv.Value, io.Reader, ...). An interface
// the module never names, such as math/rand/v2.Source, does not make a
// method with a matching signature live.
func (u *surface) markInterfaceMethods(used map[*types.Func]bool) error {
	fmtPkg, err := u.std.ImportFrom("fmt", "", 0)
	if err != nil {
		return err
	}
	seen := map[*types.Interface]bool{}
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	add(fmtPkg.Scope().Lookup("Stringer").Type())
	for _, p := range u.order {
		for _, tv := range p.info.Types { // every type expression, declared or named
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}

	for _, p := range u.order {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named) // *T's method set includes T's
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin()] = true
					}
				}
			}
		}
	}
	return nil
}

// surfaceName is fn's allowlist name: its package path below internal/,
// its receiver's type name if it is a method, and its own name.
func surfaceName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += "." + named.Obj().Name()
		}
	}
	return name + "." + fn.Name()
}
