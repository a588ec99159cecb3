package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The first index to run cancels, and every other index blocks until the
// cancellation lands, so each worker holds at most one index when it
// does. Without the wait, fast workers could finish all n indices first,
// and ForEachCtx then rightly reports the complete work as a success.
func TestForEachCtxCancelStopsScheduling(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed int32
		const n = 1000
		err := ForEachCtx(ctx, workers, n, func(i int) error {
			if atomic.AddInt32(&executed, 1) == 1 {
				cancel()
			} else {
				<-ctx.Done()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := atomic.LoadInt32(&executed); got > int32(workers) {
			t.Errorf("workers=%d: %d indices ran, want at most one per worker", workers, got)
		}
	}
}

// A fn failure must still win over the cancellation it may have provoked,
// keeping the lowest-failing-index determinism of ForEach.
func TestForEachCtxFnErrorWinsOverCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachCtx(ctx, 4, 100, func(i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

func TestForEachCtxCompletedWorkSurvives(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 64
	out := make([]int, n)
	_ = ForEachCtx(ctx, 4, n, func(i int) error {
		out[i] = i + 1
		if i == 10 {
			cancel()
		}
		return nil
	})
	// Every index that ran wrote its slot; index 10 certainly ran.
	if out[10] != 11 {
		t.Error("completed slot lost after cancellation")
	}
}

// A cancellation that lands after the last index completed must not turn
// complete work into a partial result — serial and parallel agree.
func TestForEachCtxCompleteWorkBeatsLateCancel(t *testing.T) {
	for _, workers := range []int{2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 32
		var ran int32
		err := ForEachCtx(ctx, workers, n, func(i int) error {
			if atomic.AddInt32(&ran, 1) == n {
				cancel() // the final index cancels on its way out
			}
			return nil
		})
		cancel()
		if err != nil {
			t.Errorf("workers=%d: fully-completed fan-out returned %v, want nil", workers, err)
		}
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed int32
	err := ForEachCtx(ctx, 1, 10, func(i int) error {
		atomic.AddInt32(&executed, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if executed != 0 {
		t.Errorf("%d indices ran under a pre-cancelled context", executed)
	}
}

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool(4, 64)
	var ran int32
	const n = 64
	for i := 0; i < n; i++ {
		if err := p.SubmitTask(Task{Run: func(context.Context) { atomic.AddInt32(&ran, 1) }}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Drain()
	if ran != n {
		t.Errorf("ran %d tasks, want %d", ran, n)
	}
}

func TestPoolRejectsWhenFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.SubmitTask(Task{Run: func(context.Context) { close(started); <-block }}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the first task; the queue is empty again
	if err := p.SubmitTask(Task{Run: func(context.Context) { <-block }}); err != nil {
		t.Fatal(err)
	}
	// Queue depth 1 is now occupied: the next submit must shed.
	if err := p.SubmitTask(Task{Run: func(context.Context) {}}); !errors.Is(err, ErrPoolFull) {
		t.Errorf("got %v, want ErrPoolFull", err)
	}
	close(block)
}

func TestPoolSubmitAfterCloseRejected(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if err := p.SubmitTask(Task{Run: func(context.Context) {}}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("got %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseCancelsRunningTasks(t *testing.T) {
	p := NewPool(1, 1)
	entered := make(chan struct{})
	var sawCancel atomic.Bool
	if err := p.SubmitTask(Task{Run: func(ctx context.Context) {
		close(entered)
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
		case <-time.After(5 * time.Second):
		}
	}}); err != nil {
		t.Fatal(err)
	}
	<-entered
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return: running task never saw the cancellation")
	}
	if !sawCancel.Load() {
		t.Error("running task did not observe the pool context cancellation")
	}
}

func TestPoolConcurrentSubmitRaceClean(t *testing.T) {
	p := NewPool(4, 256)
	var ran int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				for {
					err := p.SubmitTask(Task{Run: func(context.Context) { atomic.AddInt32(&ran, 1) }})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrPoolFull) {
						t.Errorf("submit: %v", err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	p.Drain()
	if ran != 16*16 {
		t.Errorf("ran %d tasks, want %d", ran, 16*16)
	}
}

// Workers dequeue highest priority first, FIFO within a priority.
func TestPoolPriorityOrdering(t *testing.T) {
	p := NewPool(1, 16)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.SubmitTask(Task{Run: func(context.Context) { close(started); <-block }}); err != nil {
		t.Fatal(err)
	}
	<-started
	var mu sync.Mutex
	var order []int
	add := func(tag int) func(context.Context) {
		return func(context.Context) { mu.Lock(); order = append(order, tag); mu.Unlock() }
	}
	// Queue low, high, two mediums (FIFO between them), low.
	for _, c := range []struct{ tag, pri int }{
		{1, 0}, {2, 10}, {3, 5}, {4, 5}, {5, 0},
	} {
		if err := p.SubmitTask(Task{Run: add(c.tag), Priority: c.pri}); err != nil {
			t.Fatalf("submit %d: %v", c.tag, err)
		}
	}
	close(block)
	p.Drain()
	want := []int{2, 3, 4, 1, 5}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %d tasks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", order, want)
		}
	}
}

// A full queue sheds its lowest-priority (newest-first) entry to admit a
// strictly higher-priority submission: the victim's Shed hook fires and
// its Run never does. An equal-priority submission is rejected instead.
func TestPoolShedsLowestPriority(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.SubmitTask(Task{Run: func(context.Context) { close(started); <-block }}); err != nil {
		t.Fatal(err)
	}
	<-started
	var lowRan, lowShed, low2Shed atomic.Bool
	if err := p.SubmitTask(Task{
		Run:      func(context.Context) { lowRan.Store(true) },
		Priority: 1,
		Shed:     func() { lowShed.Store(true) },
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitTask(Task{
		Run:      func(context.Context) {},
		Priority: 1,
		Shed:     func() { low2Shed.Store(true) },
	}); err != nil {
		t.Fatal(err)
	}
	// Equal priority cannot displace anything.
	if err := p.SubmitTask(Task{Run: func(context.Context) {}, Priority: 1}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("equal-priority submit on full queue: got %v, want ErrPoolFull", err)
	}
	// Higher priority displaces the newest of the lowest-priority pair.
	if err := p.SubmitTask(Task{Run: func(context.Context) {}, Priority: 5}); err != nil {
		t.Fatalf("higher-priority submit on full queue: %v", err)
	}
	if !low2Shed.Load() {
		t.Error("newest low-priority task was not shed")
	}
	if lowShed.Load() {
		t.Error("oldest low-priority task was shed before the newer one")
	}
	close(block)
	p.Drain()
	if !lowRan.Load() {
		t.Error("surviving low-priority task never ran")
	}
}

// The shutdown-ordering regression: submissions racing Close/Drain must
// get the ErrPoolClosed sentinel (or land and run), never panic on a
// closed queue, and every accepted task must execute exactly once.
func TestPoolSubmitCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := NewPool(2, 64)
		var accepted, ran int32
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := p.SubmitTask(Task{Run: func(context.Context) { atomic.AddInt32(&ran, 1) }})
					switch {
					case err == nil:
						atomic.AddInt32(&accepted, 1)
					case errors.Is(err, ErrPoolClosed):
						return
					case errors.Is(err, ErrPoolFull):
					default:
						t.Errorf("unexpected submit error: %v", err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		p.Drain() // must not race the submitters into a panic
		close(stop)
		wg.Wait()
		if a, r := atomic.LoadInt32(&accepted), atomic.LoadInt32(&ran); a != r {
			t.Fatalf("round %d: accepted %d tasks but ran %d", round, a, r)
		}
	}
}

func TestFlightForget(t *testing.T) {
	var f Flight[string, int]
	var runs int32
	mk := func() (int, error) { return int(atomic.AddInt32(&runs, 1)), nil }
	if v, _ := f.Do("k", mk); v != 1 {
		t.Fatalf("first Do = %d, want 1", v)
	}
	if v, _ := f.Do("k", mk); v != 1 {
		t.Fatalf("cached Do = %d, want 1", v)
	}
	f.Forget("k")
	if v, _ := f.Do("k", mk); v != 2 {
		t.Fatalf("post-Forget Do = %d, want 2 (recomputed)", v)
	}
}
