// Tests of the public facade: everything a downstream user touches goes
// through package teem, so these tests double as API contract checks.
package teem_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"teem"
	"teem/internal/governor"
	"teem/internal/soc"
)

func TestPublicPipeline(t *testing.T) {
	plat := teem.Exynos5422()
	net := teem.Exynos5422Thermal()
	mgr, err := teem.NewManager(plat, net, teem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	app := teem.Covariance()
	model, err := mgr.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if model.StorageBytes() != 32 {
		t.Errorf("StorageBytes = %d, want 32", model.StorageBytes())
	}
	res, dec, err := mgr.Run(app, model.ETGPUSec/2, 85)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.ThrottleEvents != 0 {
		t.Errorf("public pipeline run: completed=%v trips=%d", res.Completed, res.ThrottleEvents)
	}
	if dec.Part.Num != 4 {
		t.Errorf("half-ETGPU TREQ should give the even split, got %s", dec.Part)
	}
}

func TestPublicGovernorsRun(t *testing.T) {
	cfg := teem.SimConfig{
		Platform: teem.Exynos5422(),
		Net:      teem.Exynos5422Thermal(),
		App:      teem.Covariance(),
		Map:      teem.Mapping{Big: 2, Little: 2, UseGPU: true},
		Part:     teem.Partition{Num: 2, Den: 8},
	}
	for _, g := range []teem.Governor{
		teem.NewOndemand(),
		teem.NewPerformance(),
		governor.NewConservative(),
		&governor.Userspace{BigMHz: 1500, LittleMHz: 1000, GPUMHz: 480},
		teem.NewController(teem.DefaultParams()),
	} {
		cfg.Governor = g
		res, err := teem.RunWarm(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !res.Completed {
			t.Errorf("%s: run did not complete", g.Name())
		}
	}
}

func TestPublicKernels(t *testing.T) {
	k, err := teem.NewKernel("GEMM", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := teem.RunPartitioned(k, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	ref, _ := teem.NewKernel("GEMM", 16)
	ref.RunRows(0, ref.Rows())
	if k.Checksum() != ref.Checksum() {
		t.Error("partitioned checksum differs")
	}
}

func TestPublicDesignSpace(t *testing.T) {
	sp, err := teem.NewSpace(teem.Exynos5422())
	if err != nil {
		t.Fatal(err)
	}
	if sp.MaxDesignPoints() != 28560 {
		t.Errorf("Eq. 2 = %d", sp.MaxDesignPoints())
	}
	if p := teem.NearestPartition(0.5); p.Num != 4 {
		t.Errorf("NearestPartition(0.5) = %s", p)
	}
}

func TestPublicSecondPlatform(t *testing.T) {
	p := soc.Exynos5410()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The design-space formulas apply to the 5410 too.
	sp, err := teem.NewSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (2): (4·11 + 4·11 + 4·11·4·11) × 5 = (44+44+1936)×5 = 10120.
	if got := sp.MaxDesignPoints(); got != 10120 {
		t.Errorf("5410 design points = %d, want 10120", got)
	}
}

func TestPublicTraceCSV(t *testing.T) {
	cfg := teem.SimConfig{
		Platform: teem.Exynos5422(),
		Net:      teem.Exynos5422Thermal(),
		App:      teem.Covariance(),
		Map:      teem.Mapping{Big: 2, Little: 2, UseGPU: true},
		Part:     teem.Partition{Num: 2, Den: 8},
		MaxTimeS: 3,
	}
	e, err := teem.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "temp_A15_C") {
		t.Error("CSV header missing")
	}
}

// The facade is the module's only importable surface, and no command or
// internal package imports it: an exported name that no example reaches
// is a second name for an internal identifier with no caller. A type
// that the signature of an example-named function names stays, so the
// function's godoc links resolve.
func TestFacadeIsExampleSurface(t *testing.T) {
	fset := token.NewFileSet()
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	used := map[string]bool{}
	for _, path := range append(examples, "example_test.go") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "teem" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	facade, err := parser.ParseFile(fset, "teem.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	signature := map[string]bool{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			exported = append(exported, d.Name.Name)
			if !used[d.Name.Name] {
				continue
			}
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					signature[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported = append(exported, n.Name)
					}
				}
			}
		}
	}

	for _, name := range exported {
		if ast.IsExported(name) && !used[name] && !signature[name] {
			t.Errorf("teem.%s: no example names it and no example-named function's signature uses it", name)
		}
	}
}
