package scenario

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"teem/internal/sim"
	"teem/internal/trace"
)

// A pre-cancelled context must abort the run before it simulates
// anything, surfacing sim.ErrAborted through the scenario error chain.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, Sunlight(), Config{})
	if !errors.Is(err, sim.ErrAborted) {
		t.Fatalf("got %v, want sim.ErrAborted", err)
	}
}

// Cancelling mid-run must return promptly with a partial grid: completed
// cells kept, unfinished cells nil, and the error wrapping ctx.Err().
func TestRunGridCtxCancelReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	rc := Config{
		// Cancel as soon as the first cell completes: remaining cells
		// must not run to completion.
		OnCell: func(*Result) { once.Do(cancel) },
	}
	scs := Presets()
	govs := GovernorNames()
	grid, err := RunGridCtx(ctx, scs, govs, rc, 1)
	if err == nil {
		t.Fatal("cancelled grid returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	if grid == nil {
		t.Fatal("cancelled grid returned no partial result")
	}
	done, missing := 0, 0
	for si := range grid.Cells[0] {
		for gi := range grid.Cells[0][si] {
			if grid.Cells[0][si][gi] != nil {
				done++
			} else {
				missing++
			}
		}
	}
	if done == 0 {
		t.Error("partial grid lost the completed cell")
	}
	if missing == 0 {
		t.Error("every cell completed despite the cancellation after the first")
	}
	// The partial grid must render (nil cells as cancelled rows) and
	// count violations without panicking.
	if !strings.Contains(grid.Render(), "cancelled") {
		t.Error("partial grid render does not mark unfinished cells")
	}
	_ = grid.Violations()
}

// A grid cancelled before its first cell must still come back as a
// partial result with ctx.Err() in the chain — the cancellation contract
// the service layer relies on.
func TestRunGridCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	grid, err := RunGridCtx(ctx, []*Scenario{Sunlight()}, []string{"ondemand"}, Config{}, 1)
	if err == nil {
		t.Fatal("pre-cancelled grid returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	if grid == nil {
		t.Fatal("cancelled grid returned no partial result")
	}
}

// The background-context grid is the classic RunGrid, byte-identical.
func TestRunGridCtxBackgroundMatchesRunGrid(t *testing.T) {
	scs := []*Scenario{Sunlight()}
	govs := []string{"ondemand"}
	a, err := RunGrid(scs, govs, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGridCtx(context.Background(), scs, govs, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("RunGridCtx(background) differs from RunGrid")
	}
}

// OnCell must observe every completed cell exactly once.
func TestRunGridOnCellSeesEveryCell(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	rc := Config{OnCell: func(r *Result) {
		mu.Lock()
		seen[r.Scenario+"/"+r.Governor]++
		mu.Unlock()
	}}
	scs := []*Scenario{Sunlight(), CoreLoss()}
	govs := []string{"ondemand", "powersave"}
	if _, err := RunGrid(scs, govs, rc, 0); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("OnCell saw %d distinct cells, want 4: %v", len(seen), seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %s observed %d times", k, n)
		}
	}
}

// The streaming hook must deliver exactly the samples of the final
// trace, live.
func TestRunOnSampleMatchesResultTrace(t *testing.T) {
	var streamed []trace.Sample
	rc := Config{OnSample: func(s trace.Sample) { streamed = append(streamed, s) }}
	r, err := Run(Sunlight(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(r.Sim.Trace.Samples) {
		t.Fatalf("streamed %d samples, trace has %d", len(streamed), len(r.Sim.Trace.Samples))
	}
	for i := range streamed {
		if streamed[i].TimeS != r.Sim.Trace.Samples[i].TimeS ||
			streamed[i].PowerW != r.Sim.Trace.Samples[i].PowerW {
			t.Fatalf("sample %d differs between stream and trace", i)
		}
	}
}
