package scenario

import (
	"fmt"
	"strings"
	"testing"

	"teem/internal/platform"
	"teem/internal/soc"
	"teem/internal/thermal"
)

// TestRunPlatformName runs a preset on a catalog platform selected by
// name and checks the result is attributed to it.
func TestRunPlatformName(t *testing.T) {
	r, err := Run(Sunlight(), Config{PlatformName: "sparrow-e1", Governor: "teem"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Platform != "sparrow-e1" {
		t.Fatalf("Result.Platform = %q", r.Platform)
	}
	if !r.Passed() {
		t.Fatalf("violations: %v", r.Violations)
	}
}

// TestRunDefaultPlatformMatchesExplicitExynos pins the catalog bridge at
// the scenario layer: the zero config (default catalog platform) and the
// explicit Exynos constructors produce identical results.
func TestRunDefaultPlatformMatchesExplicitExynos(t *testing.T) {
	a, err := Run(Sunlight(), Config{Governor: "teem"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Sunlight(), Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		Governor: "teem",
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.EnergyJ != b.Sim.EnergyJ || a.Sim.ExecTimeS != b.Sim.ExecTimeS || a.Sim.PeakTempC != b.Sim.PeakTempC {
		t.Fatalf("default catalog platform diverges from the Exynos constructors: %+v vs %+v", a.Sim, b.Sim)
	}
	if a.Platform != platform.DefaultName {
		t.Fatalf("default Result.Platform = %q", a.Platform)
	}
}

// TestRunRejectsHalfPair is the scenario-layer regression test for the
// silent-pairing bug: a config with only one of Platform/Net used to be
// completed with the Exynos preset for the other half, which on any
// non-Exynos input meant sensors silently reading 0 °C. It must be an
// error now.
func TestRunRejectsHalfPair(t *testing.T) {
	if _, err := Run(Sunlight(), Config{Platform: soc.Exynos5410()}); err == nil {
		t.Error("Run accepted Platform without Net")
	}
	if _, err := Run(Sunlight(), Config{Net: thermal.Exynos5410Network()}); err == nil {
		t.Error("Run accepted Net without Platform")
	}
	if _, err := Run(Sunlight(), Config{PlatformName: "exynos5410", Platform: soc.Exynos5410(), Net: thermal.Exynos5410Network()}); err == nil {
		t.Error("Run accepted PlatformName combined with an explicit pair")
	}
	if _, err := Run(Sunlight(), Config{PlatformName: "no-such-board"}); err == nil {
		t.Error("Run accepted an unknown platform name")
	}
}

// TestNodeAliases checks @-aliases bind to the resolved platform's real
// node names — including in violation messages.
func TestNodeAliases(t *testing.T) {
	p := soc.Exynos5422()
	for alias, want := range map[string]string{
		NodeBig:    "A15",
		NodeLittle: "A7",
		NodeGPU:    "MaliT628",
		NodePkg:    "pkg",
		"A15":      "A15", // plain names pass through
	} {
		if got := resolveNode(p, alias); got != want {
			t.Errorf("resolveNode(%q) = %q, want %q", alias, got, want)
		}
	}

	// An impossible bound on @big must report the platform's big-cluster
	// node by its real name.
	sc, err := New("alias-check").
		ArriveDefault(0, "MVT").
		AssertPeakBelow(NodeBig, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(sc, Config{PlatformName: "merlin-m3", Governor: "teem"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) == 0 {
		t.Fatal("impossible @big bound did not trip")
	}
	if !strings.Contains(r.Violations[0], "X4") {
		t.Errorf("violation %q does not name merlin-m3's big cluster X4", r.Violations[0])
	}
}

// TestRunPlatformGridDeterminism pins the platform grid's core contract:
// parallel execution is byte-identical to serial execution.
func TestRunPlatformGridDeterminism(t *testing.T) {
	plats := []string{"exynos5422", "sparrow-e1"}
	scs := []*Scenario{Sunlight(), CoreLoss()}
	govs := []string{"ondemand", "teem"}
	serial, err := RunPlatformGrid(plats, scs, govs, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPlatformGrid(plats, scs, govs, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Render(), par.Render(); s != p {
		t.Fatalf("parallel platform grid differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

func TestRunPlatformGridShape(t *testing.T) {
	g, err := RunPlatformGrid([]string{"kestrel-e2"}, []*Scenario{CoreLoss()}, []string{"teem"}, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Cell("kestrel-e2", "core-loss", "teem")
	if r == nil {
		t.Fatal("cell lookup failed")
	}
	if r.Platform != "kestrel-e2" || r.Sim == nil {
		t.Fatalf("cell = %+v", r)
	}
	if g.Violations() != 0 {
		t.Fatalf("unexpected violations: %s", g.Render())
	}
	if !strings.Contains(g.Render(), "kestrel-e2") {
		t.Error("render lacks the platform column")
	}
}

func TestRunPlatformGridValidation(t *testing.T) {
	scs := []*Scenario{CoreLoss()}
	if _, err := RunPlatformGrid(nil, scs, []string{"teem"}, Config{}, 1); err == nil {
		t.Error("empty platform list accepted")
	}
	if _, err := RunPlatformGrid([]string{"no-such-board"}, scs, []string{"teem"}, Config{}, 1); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := RunPlatformGrid([]string{"exynos5422"}, scs, []string{"teem"}, Config{PlatformName: "exynos5410"}, 1); err == nil {
		t.Error("platform grid accepted a config that also selects a platform")
	}
}

// hardwareErr is the violation a grid cell records when its hardware
// reference names neither a catalog platform nor a readable file.
func hardwareErr(scenario, ref string) string {
	return fmt.Sprintf("error: scenario %s: platform: %q is neither a builtin platform (have %s) nor a readable file",
		scenario, ref, strings.Join(platform.Names(), ", "))
}

// An unresolvable Config.PlatformName is a per-cell failure, not a grid
// error: every cell keeps its identity, carries no sim result and reports
// the resolution error under its own scenario name.
func TestGridUnresolvableHardwarePerCell(t *testing.T) {
	scs := []*Scenario{Sunlight(), CoreLoss()}
	govs := []string{"ondemand", "teem"}
	for _, workers := range []int{1, 4} {
		g, err := RunGrid(scs, govs, Config{PlatformName: "no-such-board"}, workers)
		if err != nil {
			t.Fatalf("workers=%d: grid error %v, want per-cell violations", workers, err)
		}
		for si, sc := range scs {
			for gi, gov := range govs {
				r := g.Cells[0][si][gi]
				if r == nil {
					t.Fatalf("workers=%d: cell %s/%s missing", workers, sc.Name, gov)
				}
				if r.Sim != nil {
					t.Errorf("workers=%d: cell %s/%s ran without hardware", workers, sc.Name, gov)
				}
				if r.Scenario != sc.Name || r.Governor != gov || r.Platform != "" {
					t.Errorf("workers=%d: cell identity = %q/%q/%q", workers, r.Platform, r.Scenario, r.Governor)
				}
				want := hardwareErr(sc.Name, "no-such-board")
				if len(r.Violations) != 1 || r.Violations[0] != want {
					t.Errorf("workers=%d: cell %s/%s violations = %q, want [%q]", workers, sc.Name, gov, r.Violations, want)
				}
			}
		}
	}
}

// A scenario that fails validation reports that failure even when the
// grid's hardware does not resolve either: validation comes first, as in
// Run, while the valid scenario beside it reports the hardware error.
func TestGridValidationErrorBeatsHardwareError(t *testing.T) {
	badGov := Sunlight()
	badGov.Name = "bad-gov"
	badGov.Governor = "nope"
	g, err := RunGrid([]*Scenario{badGov, CoreLoss()}, []string{"teem"}, Config{PlatformName: "no-such-board"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Cell("", "bad-gov", "teem").Violations, `error: scenario bad-gov: unknown governor "nope"`; len(got) != 1 || got[0] != want {
		t.Errorf("invalid scenario violations = %q, want [%q]", got, want)
	}
	if got, want := g.Cell("", "core-loss", "teem").Violations, hardwareErr("core-loss", "no-such-board"); len(got) != 1 || got[0] != want {
		t.Errorf("valid scenario violations = %q, want [%q]", got, want)
	}
	// On the platform axis the invalid scenario's cell still reports its
	// validation error, attributed to the plane's catalog name.
	pg, err := RunPlatformGrid([]string{"sparrow-e1"}, []*Scenario{badGov}, []string{"teem"}, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := pg.Cell("sparrow-e1", "bad-gov", "teem")
	if r == nil || r.Platform != "sparrow-e1" || r.Sim != nil ||
		len(r.Violations) != 1 || r.Violations[0] != `error: scenario bad-gov: unknown governor "nope"` {
		t.Errorf("platform-grid invalid cell = %+v", r)
	}
}
