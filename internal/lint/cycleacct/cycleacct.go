// Package cycleacct keeps the cost model auditable: every cycle, every
// instruction, and every unit of cache energy charged by the simulator must
// flow through a designated accounting function. Inside internal/clumsy and
// internal/cache, direct writes (assignment, compound assignment,
// increment/decrement) to the counter fields
//
//	Cycles, core, instrs, burned, ReadSwing, WriteSwing,
//	and the CycleBreakdown attribution buckets
//
// are rejected unless the enclosing function is marked as an accounting
// helper with a `//lint:cycle-accounting` doc-comment directive. A
// cost-model change then always lands in a small, greppable set of
// functions, and the paper's Table I / Figures 6-12 numbers cannot drift
// because some distant call site bumped a counter on its own.
package cycleacct

import (
	"go/ast"
	"go/token"
	"go/types"

	"clumsy/internal/lint/analysis"
)

// Packages are the accounting-scoped package directories.
var Packages = []string{"internal/clumsy", "internal/cache"}

// counterFields maps each live accumulator struct to its protected
// cycle/energy/instruction counter fields. clumsy.Result is listed because
// the engine folds each finished pass's cost-model totals straight into
// it, so those totals are written only by the fold; other snapshot
// structs (cache.Stats copies) are deliberately not listed.
var counterFields = map[string]map[string]bool{
	"engine":     {"core": true, "instrs": true, "burned": true},
	"L1Data":     {"Cycles": true},
	"L1Instr":    {"Cycles": true},
	"MainMemory": {"Cycles": true},
	"CycleBreakdown": {
		"Compute": true, "L1D": true, "L1I": true, "L2": true,
		"Mem": true, "Recovery": true, "FreqPenalty": true,
	},
	"EnergyWeights": {"ReadSwing": true, "WriteSwing": true},
	"Result": {
		"Cycles": true, "Instrs": true, "Breakdown": true,
		"GoldenCycles": true, "GoldenInstrs": true,
	},
}

// Analyzer is the cycleacct check.
var Analyzer = &analysis.Analyzer{
	Name: "cycleacct",
	Doc: "forbid direct writes to cycle/energy counter fields outside functions " +
		"marked //lint:cycle-accounting (keeps the cost model auditable)",
	Run:        run,
	Directives: []string{"cycle-accounting"},
}

func run(pass *analysis.Pass) error {
	if !analysis.PathWithin(pass.Pkg.Path(), Packages...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.FuncDirective(fn, "cycle-accounting") {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures inherit the enclosing function's (lack of)
			// accounting status; keep walking.
			return true
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				report(pass, fn, lhs)
			}
		case *ast.IncDecStmt:
			report(pass, fn, n.X)
		}
		return true
	})
}

// report flags lhs when it is a counter field of a live accumulator.
func report(pass *analysis.Pass, fn *ast.FuncDecl, lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !counterFields[named.Obj().Name()][sel.Sel.Name] {
		return
	}
	pass.Reportf(sel.Pos(),
		"direct write to cycle/energy counter field %s outside an accounting function: "+
			"route it through a //lint:cycle-accounting helper (in %s)",
		sel.Sel.Name, fn.Name.Name)
}
