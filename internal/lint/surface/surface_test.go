// Package surface checks that the module carries no code that only its
// tests use. It holds no program code: TestSurface loads the module and
// perfbench (non-test files only) and enforces two rules on every
// declaration outside internal/lint:
//
//  1. Every function, method and field of a named struct type is
//     reached by non-test code.
//  2. No struct field is written by non-test code without also being
//     read by it.
//
// Exceptions are listed in testdata/allow.txt, each with its reason. The
// test fails on a finding the list does not name and on a listed entry
// that is no longer a finding, so the list can only shrink.
package surface

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clumsy/internal/lint/load"
)

// A finding is one declaration that breaks a rule.
type finding struct {
	key string // pkgpath.Name, or pkgpath.Type.Name for methods and fields
	pos token.Position
	msg string
}

func (f finding) String() string { return fmt.Sprintf("%s: %s %s", f.pos, f.key, f.msg) }

// A decl is one function, method or field the rules apply to.
type decl struct {
	key   string
	pos   token.Position
	field bool
	// For a method, its name and the names of its type's method set,
	// pointer receivers included.
	method string
	set    map[string]bool
}

// usage is what non-test code does with the declarations, keyed as
// decl.key. Each package is type-checked against its imports' export
// data, so one declaration has an object per importing package; only its
// key is common to them all.
type usage struct {
	reached map[string]bool
	read    map[string]bool
	// calls holds, per interface method non-test code uses, the method
	// names of each interface it is used through. A method of that name
	// is reached when its type's method set has every one of them.
	// Interfaces are matched by name, not by types.Implements, because
	// the identities of one type differ per package.
	calls map[string][][]string
}

// scan applies both rules to the declarations of pkgs, counting what the
// non-test code of pkgs and users does with them.
func scan(pkgs, users []*load.Package) []finding {
	u := usage{reached: map[string]bool{}, read: map[string]bool{}, calls: map[string][][]string{}}
	var decls []decl
	for _, p := range pkgs {
		decls = append(decls, declarations(p, u.read)...)
	}
	for _, p := range append(append([]*load.Package(nil), pkgs...), users...) {
		u.record(p)
	}
	var out []finding
	for _, d := range decls {
		switch {
		case d.field && u.reached[d.key] && !u.read[d.key]:
			out = append(out, finding{d.key, d.pos, "is written by non-test code but never read"})
		case !u.reached[d.key] && !u.viaInterface(d):
			out = append(out, finding{d.key, d.pos, "is not reached by non-test code"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// viaInterface reports whether non-test code may call method d through
// an interface.
func (u usage) viaInterface(d decl) bool {
	for _, names := range u.calls[d.method] {
		covered := true
		for _, n := range names {
			covered = covered && d.set[n]
		}
		if covered {
			return true
		}
	}
	return false
}

// declarations lists the functions and methods p declares and the fields
// of its named struct types. A field with a json tag is marked read:
// encoding/json reads it.
func declarations(p *load.Package, read map[string]bool) []decl {
	var out []decl
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if d, ok := funcDecl(p, n); ok {
					out = append(out, d)
				}
			case *ast.TypeSpec:
				owner := p.TypesInfo.Defs[n.Name].(*types.TypeName)
				s, ok := owner.Type().Underlying().(*types.Struct)
				ok = ok && !owner.IsAlias()
				for i := 0; ok && i < s.NumFields(); i++ {
					v := s.Field(i)
					if v.Name() == "_" {
						continue
					}
					key := fieldKey(owner, v)
					if reflect.StructTag(s.Tag(i)).Get("json") != "" {
						read[key] = true
					}
					out = append(out, decl{key: key, pos: p.Fset.Position(v.Pos()), field: true})
				}
			}
			return true
		})
	}
	return out
}

// funcDecl describes a declared function or method. The runtime calls
// main and init, and fmt and the error interface call String and Error.
func funcDecl(p *load.Package, fd *ast.FuncDecl) (decl, bool) {
	name := fd.Name.Name
	if name == "_" || name == "init" || (name == "main" && fd.Recv == nil && p.Types.Name() == "main") {
		return decl{}, false
	}
	fn := p.TypesInfo.Defs[fd.Name].(*types.Func)
	sig := fn.Type().(*types.Signature)
	d := decl{key: funcKey(fn), pos: p.Fset.Position(fd.Name.Pos())}
	if recv := sig.Recv(); recv != nil {
		if (name == "String" || name == "Error") && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
			return decl{}, false
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		ms := types.NewMethodSet(types.NewPointer(t))
		d.method, d.set = name, map[string]bool{}
		for i := range ms.Len() {
			d.set[ms.At(i).Obj().Name()] = true
		}
	}
	return d, true
}

// record notes what the non-test code of p reaches and reads: every
// function or method it names, every field it selects (embedded fields
// walked on the way included), and every field a composite literal sets.
// A selection read is any but an assignment's target or an
// increment's operand; `&x.f` and `x.f += 1` read x.f.
func (u usage) record(p *load.Package) {
	for _, obj := range p.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			u.reached[funcKey(fn)] = true
			continue
		}
		iface := recv.Type().Underlying().(*types.Interface)
		var names []string
		for i := range iface.NumMethods() {
			names = append(names, iface.Method(i).Name())
		}
		u.calls[fn.Name()] = append(u.calls[fn.Name()], names)
	}
	targets := map[*ast.SelectorExpr]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						markTarget(targets, lhs)
					}
				}
			case *ast.IncDecStmt:
				markTarget(targets, n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					markTarget(targets, n.Key)
					markTarget(targets, n.Value)
				}
			case *ast.CompositeLit:
				u.literal(p, n)
			}
			return true
		})
	}
	for se, sel := range p.TypesInfo.Selections {
		path := sel.Index()
		if sel.Kind() != types.FieldVal {
			path = path[:len(path)-1] // the embedded fields before the method
		}
		t := sel.Recv()
		for i, idx := range path {
			s, owner := structOf(t)
			v := s.Field(idx)
			if owner != nil {
				key := fieldKey(owner, v)
				u.reached[key] = true
				u.read[key] = u.read[key] || i < len(path)-1 || !targets[se]
			}
			t = v.Type()
		}
	}
}

// literal records the fields a struct composite literal sets.
func (u usage) literal(p *load.Package, lit *ast.CompositeLit) {
	s, owner := structOf(p.TypesInfo.TypeOf(lit))
	if s == nil || owner == nil {
		return
	}
	for i, elt := range lit.Elts {
		v := s.Field(i)
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = p.TypesInfo.Uses[kv.Key.(*ast.Ident)].(*types.Var)
		}
		u.reached[fieldKey(owner, v)] = true
	}
}

func markTarget(targets map[*ast.SelectorExpr]bool, e ast.Expr) {
	if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		targets[se] = true
	}
}

// structOf returns the struct under t, through one pointer, and the type
// that declares it, nil for an unnamed struct.
func structOf(t types.Type) (*types.Struct, *types.TypeName) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return s, n.Obj()
	}
	return s, nil
}

// funcKey spells a function pkgpath.Name and a method pkgpath.Type.Name.
func funcKey(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return fn.Pkg().Path() + "." + types.Unalias(t).(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// fieldKey spells a field pkgpath.Type.Name.
func fieldKey(owner *types.TypeName, v *types.Var) string {
	return owner.Pkg().Path() + "." + owner.Name() + "." + v.Name()
}

// allowFile lists the kept findings, one `key  reason` per line.
const allowFile = "testdata/allow.txt"

// TestSurface applies both rules to the module, counting perfbench as a
// user of the simulator: its own declarations are not checked.
func TestSurface(t *testing.T) {
	const root = "../../.."
	mod, err := load.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := load.Load(filepath.Join(root, "perfbench"), ".")
	if err != nil {
		t.Fatal(err)
	}
	var checked, users []*load.Package
	for _, p := range mod {
		if p.PkgPath == "clumsy/internal/lint" || strings.HasPrefix(p.PkgPath, "clumsy/internal/lint/") {
			users = append(users, p)
		} else {
			checked = append(checked, p)
		}
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range compare(scan(checked, append(users, bench...)), allow) {
		t.Error(problem)
	}
}

// readAllow returns the allowlist's keys and their line numbers. Blank
// lines and lines starting with # are skipped; every entry needs a
// reason.
func readAllow(name string) (map[string]int, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s gives no reason", name, line, key)
		}
		allow[key] = line
	}
	return allow, sc.Err()
}

// compare returns one problem per finding that allow does not list and
// one per listed entry that is no longer a finding.
func compare(findings []finding, allow map[string]int) []string {
	var out []string
	found := map[string]bool{}
	for _, f := range findings {
		found[f.key] = true
		if _, ok := allow[f.key]; !ok {
			out = append(out, fmt.Sprintf("%s; delete it, or list it in %s with its reason", f, allowFile))
		}
	}
	for key, line := range allow {
		if !found[key] {
			out = append(out, fmt.Sprintf("%s:%d: %s is no longer a finding; delete the line", allowFile, line, key))
		}
	}
	sort.Strings(out)
	return out
}

// stack is the fixture package the rules are checked on. Its test calls
// Peek and reads Depth; the pushonly program only pushes, and the peeker
// program also peeks and reads the depth.
const stack = "clumsy/internal/lint/surface/testdata/src/stack"

// scanFixture loads the stack fixture and the named programs as
// analysistest loads fixtures, and scans the fixture with the programs as
// its users.
func scanFixture(t *testing.T, programs ...string) []finding {
	t.Helper()
	patterns := []string{"./testdata/src/stack"}
	for _, p := range programs {
		patterns = append(patterns, "./testdata/src/"+p)
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	var fixture, users []*load.Package
	for _, p := range pkgs {
		if p.PkgPath == stack {
			fixture = append(fixture, p)
		} else {
			users = append(users, p)
		}
	}
	if len(fixture) != 1 || len(users) != len(programs) {
		t.Fatalf("loaded %d packages for the fixture and %d programs", len(pkgs), len(programs))
	}
	return scan(fixture, users)
}

func TestRulesFire(t *testing.T) {
	findings := scanFixture(t, "pushonly")
	var got []string
	for _, f := range findings {
		got = append(got, f.key+" "+f.msg)
	}
	want := []string{
		stack + ".Stack.Depth is written by non-test code but never read",
		stack + ".Stack.Peek is not reached by non-test code",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if p := compare(findings, map[string]int{stack + ".Stack.Depth": 1}); len(p) != 1 || !strings.Contains(p[0], "Stack.Peek is not reached") {
		t.Errorf("with Depth allowed, problems = %q, want Peek's finding alone", p)
	}
}

func TestReachedFixturePasses(t *testing.T) {
	if got := scanFixture(t, "peeker"); len(got) != 0 {
		t.Errorf("findings with a non-test caller and reader: %v", got)
	}
}

func TestStaleAllowLineFails(t *testing.T) {
	got := compare(scanFixture(t, "peeker"), map[string]int{stack + ".Stack.Peek": 3})
	want := allowFile + ":3: " + stack + ".Stack.Peek is no longer a finding; delete the line"
	if len(got) != 1 || got[0] != want {
		t.Errorf("problems = %q, want %q", got, want)
	}
}
