package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(0, 100); got != DefaultWorkers() {
		t.Errorf("Normalize(0, 100) = %d, want %d", got, DefaultWorkers())
	}
	if got := Normalize(-3, 100); got != DefaultWorkers() {
		t.Errorf("Normalize(-3, 100) = %d, want %d", got, DefaultWorkers())
	}
	if got := Normalize(16, 4); got != 4 {
		t.Errorf("Normalize(16, 4) = %d, want 4", got)
	}
	if got := Normalize(3, 100); got != 3 {
		t.Errorf("Normalize(3, 100) = %d, want 3", got)
	}
	if got := Normalize(5, 0); got != 1 {
		t.Errorf("Normalize(5, 0) = %d, want 1", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 32} {
		const n = 100
		counts := make([]int32, n)
		err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for n=0")
	}
}

// The reported error must be the lowest failing index regardless of
// scheduling, so parallel and serial runs fail identically.
func TestForEachLowestIndexErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		err := ForEach(workers, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("workers=%d: got %v, want %v", workers, err, errLow)
		}
	}
}

// A failure must stop the scheduling of new indices: a doomed fan-out
// should not grind through every remaining expensive job.
func TestForEachFailFast(t *testing.T) {
	const n = 1000
	var executed int32
	boom := errors.New("boom")
	err := ForEach(4, n, func(i int) error {
		atomic.AddInt32(&executed, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if got := atomic.LoadInt32(&executed); got >= n {
		t.Errorf("all %d jobs executed despite an immediate failure at index 0", got)
	}
}

func TestForEachResultsAreIndexOrdered(t *testing.T) {
	const n = 64
	out := make([]int, n)
	if err := ForEach(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestFlightSingleExecution(t *testing.T) {
	var f Flight[string, int]
	var runs int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	const callers = 16
	vals := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], errs[i] = f.Do("k", func() (int, error) {
				atomic.AddInt32(&runs, 1)
				return 42, nil
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1", runs)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || vals[i] != 42 {
			t.Errorf("caller %d: (%d, %v)", i, vals[i], errs[i])
		}
	}
	// Later calls hit the cache without re-running fn.
	v, err := f.Do("k", func() (int, error) { atomic.AddInt32(&runs, 1); return 0, nil })
	if err != nil || v != 42 || runs != 1 {
		t.Errorf("cached Do = (%d, %v), runs %d", v, err, runs)
	}
}

func TestFlightErrorForgotten(t *testing.T) {
	var f Flight[int, string]
	boom := errors.New("boom")
	if _, err := f.Do(1, func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	v, err := f.Do(1, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Errorf("retry = (%q, %v)", v, err)
	}
}

func TestFlightDistinctKeys(t *testing.T) {
	var f Flight[int, int]
	var runs int32
	if err := ForEach(8, 10, func(i int) error {
		v, err := f.Do(i, func() (int, error) {
			atomic.AddInt32(&runs, 1)
			return i * 2, nil
		})
		if err != nil {
			return err
		}
		if v != i*2 {
			t.Errorf("key %d: got %d", i, v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 10 {
		t.Errorf("fn ran %d times, want 10", runs)
	}
}
