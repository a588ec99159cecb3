package analysis_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"teem/internal/analysis"
)

const internalPrefix = "teem/internal/"

// keptExports are the exported identifiers under internal/ that only
// tests call, kept on purpose. Keys are "pkg.Name" or "pkg.Type.Method",
// with pkg relative to teem/internal.
var keptExports = map[string]string{
	"trace.Trace.AvgTemp":        "reference implementation the run summaries are tested against",
	"trace.Trace.TempVariance":   "reference implementation the run summaries are tested against",
	"trace.Trace.TempGradient":   "reference implementation the run summaries are tested against",
	"trace.Trace.AvgFreqMHz":     "reference implementation the run summaries are tested against",
	"soc.Exynos5410":             "the catalog generator internal/platform/gen.go (//go:build ignore) builds a bundle from it",
	"thermal.Exynos5410Network":  "the catalog generator internal/platform/gen.go (//go:build ignore) builds a bundle from it",
	"platform.Bundle.Save":       "the catalog generator internal/platform/gen.go (//go:build ignore) writes the catalog with it",
	"platform.Verify":            "the catalog physics gate that make platform-gate runs",
	"scenario.ArrivalTrace.Save": "writes the file teemscenario -replay reads",
	"core.LoadStore":             "reads the store teemreport profile -save writes",
	"service.Job.Stream":         "the job stream ExampleNewService documents",
	"service.Service.Close":      "stops a service without a drain deadline (test teardown)",
	"analysis/analysistest.Run":  "the fixture harness of a test-support package",
}

// TestInternalExportsHaveCallers fails for each exported function,
// method or type under teem/internal that no non-test file of the module
// or of perfbench/ uses. A use inside the identifier's own declaration
// does not count, and neither does a method receiver naming its type.
// Methods that satisfy a named interface in the import graph (or are an
// Unwrap, which errors.Is and errors.As find without one) are called
// through that interface and are exempt, as are the keptExports.
func TestInternalExportsHaveCallers(t *testing.T) {
	mod, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := analysis.Load("../../perfbench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, p := range append(mod, bench...) {
		markUses(p, used)
	}
	ifaces := namedInterfaces(mod)

	var uncalled []string
	kept := make(map[string]bool)
	check := func(key string) {
		switch {
		case used[key]:
		case keptExports[key] != "":
			kept[key] = true
		default:
			uncalled = append(uncalled, key)
		}
	}
	for _, p := range mod {
		if !strings.HasPrefix(p.Types.Path(), internalPrefix) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if fn, ok := obj.(*types.Func); ok && fn.Exported() {
				check(exportKey(fn))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if tn.Exported() {
				check(exportKey(tn))
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() && !satisfiesInterface(named, m, ifaces) {
					check(exportKey(m))
				}
			}
		}
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		t.Errorf("%s%s has no caller outside tests: delete it, or add it to keptExports with the reason it stays", internalPrefix, key)
	}
	for key := range keptExports {
		if !kept[key] {
			t.Errorf("keptExports[%q] names no exported identifier without a caller: remove the entry", key)
		}
	}
}

// exportKey names obj as "pkg.Name", or "pkg.Type.Method" for a method.
func exportKey(obj types.Object) string {
	key := strings.TrimPrefix(obj.Pkg().Path(), internalPrefix) + "."
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				key += named.Obj().Name() + "."
			}
		}
		return key + fn.Name()
	}
	return key + obj.Name()
}

// markUses records every teem/internal object that p's files use,
// outside the declaration of the object itself.
func markUses(p *analysis.Package, used map[string]bool) {
	mark := func(self, obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == nil || obj == self || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), internalPrefix) {
			return
		}
		used[exportKey(obj)] = true
	}
	walk := func(self types.Object, root ast.Node, skip ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil || n == skip {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := p.Info.Selections[n]; ok {
					mark(self, sel.Obj())
				}
			case *ast.Ident:
				mark(self, p.Info.Uses[n])
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				// A receiver names its type; it does not use it.
				walk(p.Info.Defs[d.Name], d, d.Recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var self types.Object
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = p.Info.Defs[ts.Name]
					}
					walk(self, spec, nil)
				}
			}
		}
	}
}

// namedInterfaces returns every package-level named interface with
// methods in the packages pkgs import, directly or not, and the
// universe's error.
func namedInterfaces(pkgs []*analysis.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

// satisfiesInterface reports whether m is called through an interface:
// named (or its pointer) implements one of ifaces that declares m, or m
// is an Unwrap.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if m.Name() == "Unwrap" {
		return true
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(ptr, it) {
			continue
		}
		for i := range it.NumMethods() {
			if it.Method(i).Name() == m.Name() {
				return true
			}
		}
	}
	return false
}
