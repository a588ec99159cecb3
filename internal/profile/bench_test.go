package profile

import (
	"sync"
	"testing"

	"teem/internal/workload"
)

// BenchmarkEvaluatorPoint measures one analytic design-point evaluation:
// Eq. 3's execution time and the four-pass power/steady-state fixed point.
func BenchmarkEvaluatorPoint(b *testing.B) {
	ev, app, d := newEvaluator(b), workload.Covariance(), dp(4, 2, 4, 1800)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ev.Evaluate(app, d); err != nil {
			b.Fatal(err)
		}
	}
}

// An evaluation reuses pooled buffers and replays the thermal system's
// elimination, so it allocates nothing.
func TestEvaluateZeroAllocs(t *testing.T) {
	ev, app, d := newEvaluator(t), workload.Covariance(), dp(4, 2, 4, 1800)
	var err error
	if avg := testing.AllocsPerRun(100, func() { _, err = ev.Evaluate(app, d) }); avg != 0 {
		t.Errorf("Evaluate allocates %.2f objects/op, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// Evaluations from many goroutines on one Evaluator return what a serial
// sweep returns.
func TestEvaluateConcurrent(t *testing.T) {
	ev, app := newEvaluator(t), workload.Covariance()
	points := []struct{ nB, nL, part, mhz int }{{4, 2, 4, 1800}, {2, 4, 2, 1000}, {4, 0, 6, 2000}, {1, 1, 8, 600}}
	want := make([]PointEval, len(points))
	for i, p := range points {
		pe, err := ev.Evaluate(app, dp(p.nB, p.nL, p.part, p.mhz))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pe
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				for i, p := range points {
					if pe, err := ev.Evaluate(app, dp(p.nB, p.nL, p.part, p.mhz)); err != nil || pe != want[i] {
						t.Errorf("point %d: got %v (%v), want %v", i, pe, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
