// Package fpcover enforces fingerprint coverage for the campaign
// journal: every field of a struct annotated `//lint:fingerprint-source`
// (clumsy.Config, experiment.Options) that can change a Result must flow
// into the sha256 cell fingerprint computed by the function annotated
// `//lint:fingerprint-sink`, or carry an annotation saying how or why
// not. A Config field the fingerprint misses is the worst kind of bug the
// journal can have: `-resume` silently reuses cells computed under a
// different configuration and the campaign output is wrong with no error
// anywhere.
//
// Coverage paths, checked per source field:
//
//   - a same-named key in a keyed struct literal inside the sink function
//     (the id struct that feeds sha256);
//   - `//lint:fingerprint-extra <study>`: the field reaches the
//     fingerprint through a study's Extra value, which is serialized into
//     the id wholesale;
//   - `//lint:fingerprint-exempt <reason>`: the field steers execution
//     (contexts, timeouts) or is fixed at its default in every study, and
//     cannot change a cell's Result.
//
// Sources may live in packages the sink package imports: the defining
// package's pass exports the annotated field list as a package fact, and
// the sink package's pass checks it, reporting at the sink so the finding
// lands where the fix goes.
package fpcover

import (
	"go/ast"
	"go/token"

	"clumsy/internal/lint/analysis"
)

// SourceField is one field of a fingerprint-source struct.
type SourceField struct {
	Name      string
	Annotated bool // carries fingerprint-extra or fingerprint-exempt
}

// SourcesFact is the package fact listing a package's fingerprint-source
// structs.
type SourcesFact struct {
	Types map[string][]SourceField // type name -> fields in declaration order
}

// AFact marks SourcesFact as a fact type.
func (*SourcesFact) AFact() {}

// Analyzer is the fpcover check.
var Analyzer = &analysis.Analyzer{
	Name: "fpcover",
	Doc: "require every //lint:fingerprint-source struct field to flow into the " +
		"//lint:fingerprint-sink journal fingerprint (escapes: //lint:fingerprint-extra " +
		"<study>, //lint:fingerprint-exempt <reason>)",
	Run:        run,
	FactTypes:  []analysis.Fact{(*SourcesFact)(nil)},
	Directives: []string{"fingerprint-source", "fingerprint-sink", "fingerprint-extra", "fingerprint-exempt"},
}

func run(pass *analysis.Pass) error {
	local := collectSources(pass)
	if len(local.Types) > 0 {
		pass.ExportPackageFact(&local)
	}

	sinkKeys, sinkPos, haveSink := collectSinks(pass)
	if !haveSink {
		return nil
	}

	// Local sources report at the field; imported sources report at the
	// sink, which is where the missing id entry belongs.
	for typeName, fields := range local.Types {
		for _, fld := range fields {
			if fld.Annotated || sinkKeys[fld.Name] {
				continue
			}
			pass.Reportf(fieldPos(pass, typeName, fld.Name), "%s field %s does not flow into the campaign fingerprint: add it to the fingerprint id or annotate //lint:fingerprint-extra <study> / //lint:fingerprint-exempt <reason>",
				typeName, fld.Name)
		}
	}
	for _, imp := range pass.Pkg.Imports() {
		var fact SourcesFact
		if !pass.ImportPackageFact(imp, &fact) {
			continue
		}
		for typeName, fields := range fact.Types {
			for _, fld := range fields {
				if fld.Annotated || sinkKeys[fld.Name] {
					continue
				}
				pass.Reportf(sinkPos, "%s.%s field %s does not flow into the campaign fingerprint: add it to the fingerprint id, or annotate it //lint:fingerprint-extra <study> / //lint:fingerprint-exempt <reason> at its declaration",
					imp.Name(), typeName, fld.Name)
			}
		}
	}
	return nil
}

// collectSources gathers the package's fingerprint-source structs with
// their per-field annotation state, reporting annotations that lack the
// required argument.
func collectSources(pass *analysis.Pass) SourcesFact {
	fact := SourcesFact{Types: make(map[string][]SourceField)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !sourceDirective(pass, gd, ts) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					pass.Reportf(ts.Pos(), "//lint:fingerprint-source on non-struct type %s", ts.Name.Name)
					continue
				}
				var fields []SourceField
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						annotated := false
						for _, dir := range []string{"fingerprint-extra", "fingerprint-exempt"} {
							if args, ok := pass.DirectiveArgs(name.Pos(), dir); ok {
								annotated = true
								if args == "" {
									pass.Reportf(name.Pos(), "//lint:%s on %s.%s needs an argument", dir, ts.Name.Name, name.Name)
								}
							}
						}
						fields = append(fields, SourceField{Name: name.Name, Annotated: annotated})
					}
				}
				fact.Types[ts.Name.Name] = fields
			}
		}
	}
	if len(fact.Types) == 0 {
		return SourcesFact{}
	}
	return fact
}

func sourceDirective(pass *analysis.Pass, gd *ast.GenDecl, ts *ast.TypeSpec) bool {
	if _, ok := pass.DocDirective(gd.Doc, "fingerprint-source"); ok {
		return true
	}
	if _, ok := pass.DocDirective(ts.Doc, "fingerprint-source"); ok {
		return true
	}
	if _, ok := pass.DirectiveArgs(ts.Pos(), "fingerprint-source"); ok {
		return true
	}
	return false
}

// collectSinks finds the fingerprint-sink functions and the union of the
// keyed struct-literal keys their bodies mention — the id struct fed to
// sha256. Returns the first sink's position for cross-package reports.
func collectSinks(pass *analysis.Pass) (map[string]bool, token.Pos, bool) {
	keys := make(map[string]bool)
	pos := token.NoPos
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !pass.FuncDirective(fd, "fingerprint-sink") {
				continue
			}
			if pos == token.NoPos {
				pos = fd.Pos()
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				for _, elt := range cl.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							keys[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return keys, pos, pos != token.NoPos
}

// fieldPos resolves the declaration position of a named field of a local
// struct type for reporting.
func fieldPos(pass *analysis.Pass, typeName, fieldName string) token.Pos {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name == fieldName {
							return name.Pos()
						}
					}
				}
				return ts.Pos()
			}
		}
	}
	return token.NoPos
}
