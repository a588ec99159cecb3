// Package par is the concurrency substrate of the parallel experiment
// engine and the service layer: bounded one-shot fan-outs with
// deterministic result assembly (ForEach/ForEachCtx), a long-lived
// bounded worker pool for managed jobs (Pool), and a generic
// single-flight cache (Flight).
//
// The fan-outs run index-addressed work so callers write results into
// pre-sized slices — output order is decided by index, not by completion
// order, which keeps parallel results byte-identical to a serial loop;
// the context variant stops scheduling new indices on cancellation so
// callers get partial results promptly. The single-flight cache collapses
// concurrent computations of the same key into one execution whose result
// every caller shares; failed computations are forgotten so a later call
// retries, and Forget invalidates stale entries.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size used when a caller asks for 0 workers:
// one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize resolves a requested worker count against n jobs: zero or
// negative selects DefaultWorkers, and the pool never exceeds the job
// count.
func Normalize(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(0), …, fn(n-1) across a bounded pool of workers and
// waits for completion. With one worker it degenerates to the plain
// serial loop, stopping at the first error. With more, a failure stops
// the scheduling of new indices (in-flight calls finish) and the error
// of the lowest failing index is returned: indices are claimed in
// increasing order, so every index below a failure has already been
// scheduled by the time the failure is observed — the reported error
// does not depend on goroutine scheduling. fn must write its result into
// an index-addressed slot owned by the caller; distinct indices never
// run fn concurrently on the same slot.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach under a context: a cancellation stops the
// scheduling of new indices (in-flight calls finish) and ctx.Err() is
// returned — unless some fn failed first, in which case that error wins,
// with the same lowest-failing-index determinism ForEach guarantees.
// Work already written into caller-owned slots before the cancellation is
// preserved, so callers can report partial results. A fan-out whose every
// index completed returns nil even when ctx was cancelled in the final
// moments — complete work is complete, serial and parallel alike.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Normalize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, completed int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				} else {
					atomic.AddInt64(&completed, 1)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if atomic.LoadInt64(&completed) == int64(n) {
		// Every index ran to success: a cancellation that landed after
		// the last fn returned must not turn complete work into a
		// partial result (the serial path behaves the same way).
		return nil
	}
	return ctx.Err()
}

// Flight is a single-flight cache: concurrent Do calls with the same key
// share one execution of fn, and successful results stay cached for every
// later call. The zero value is ready to use. A Flight must not be
// copied after first use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the cached value for key, or runs fn once — no matter how
// many goroutines ask concurrently — and caches its result. When fn
// fails, every in-flight caller receives the error and the key is
// forgotten so a subsequent Do retries.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[K]*call[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	f.mu.Lock()
	if c.err != nil {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// Forget drops key from the cache so the next Do recomputes it. An
// in-flight computation is not interrupted: its callers still receive the
// result, but the key is re-executed by whoever asks after the Forget —
// the invalidation hook for caches whose values can go stale (e.g. a
// cached job that was later cancelled).
func (f *Flight[K, V]) Forget(key K) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
}
