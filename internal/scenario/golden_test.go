package scenario

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"teem/internal/mapping"
)

// goldenScenarios are the rows of the golden grids: a short arrival whose
// impossible @big bound fails (a FAIL row that still has metrics) and a
// scenario that validates but errors at run time — its CPU work lands on
// a GPU-only mapping — so its cells carry the error as their violation
// with no sim result.
func goldenScenarios(t *testing.T) []*Scenario {
	t.Helper()
	burst, err := New("burst").ArriveDefault(0, "MVT").AssertPeakBelow(NodeBig, 30).Build()
	if err != nil {
		t.Fatal(err)
	}
	broken := &Scenario{
		Name: "broken",
		Map:  mapping.Mapping{UseGPU: true},
		Events: []Event{
			{AtS: 0, Kind: KindArrival, App: "COVARIANCE", Part: &mapping.Partition{Num: 4, Den: 8}},
		},
	}
	return []*Scenario{burst, broken}
}

// checkGolden compares a render with testdata/<name> byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: render differs from the golden bytes\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGridRenderGolden pins the exact bytes of a scenario × governor
// grid: two failing rows with metrics, one errored cell and one cell
// left nil by a cancellation. The serial grid cancels as the third cell
// completes, so the fourth is deterministically unfinished.
func TestGridRenderGolden(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	rc := Config{OnCell: func(*Result) {
		if n++; n == 3 {
			cancel()
		}
	}}
	g, err := RunGridCtx(ctx, goldenScenarios(t), []string{"ondemand", "teem"}, rc, 1)
	if err == nil || g == nil {
		t.Fatalf("want a partial grid and a cancellation error, got %v", err)
	}
	checkGolden(t, "grid.golden", g.Render())
}

// TestPlatformGridRenderGolden pins the exact bytes of a two-platform
// cube with one errored cell and one cell set to nil, as a cancelled
// cube leaves it.
func TestPlatformGridRenderGolden(t *testing.T) {
	g, err := RunPlatformGrid([]string{"exynos5422", "kestrel-e2"}, goldenScenarios(t), []string{"teem"}, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Cells[1][1][0] = nil
	checkGolden(t, "cube.golden", g.Render())
}
