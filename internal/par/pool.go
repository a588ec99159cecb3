package par

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// Pool errors.
var (
	// ErrPoolClosed reports a Submit after Close or Drain. The error is a
	// sentinel, never a panic: submissions may race the shutdown freely
	// and the loser is told so instead of hitting a closed queue.
	ErrPoolClosed = errors.New("par: pool is closed")
	// ErrPoolFull reports a Submit that found the queue at capacity and
	// no queued task of strictly lower priority to displace.
	ErrPoolFull = errors.New("par: pool queue is full")
)

// Task is one unit of pool work plus its admission metadata.
type Task struct {
	// Run executes the task. It receives the pool's context, which Close
	// cancels; a task that ignores the cancellation stalls the teardown.
	Run func(ctx context.Context)
	// Priority orders dequeue: higher priorities run first, equal
	// priorities in submission order. It also orders shedding — a full
	// queue displaces its lowest-priority entry to admit a strictly
	// higher-priority submission.
	Priority int
	// Shed, if set, is invoked (on the displacing submitter's goroutine,
	// after the task has been removed from the queue) when the task is
	// evicted by a higher-priority submission. Run is never called for a
	// shed task.
	Shed func()
}

// queuedTask is a Task in the pool's priority queue.
type queuedTask struct {
	Task
	seq   int64 // submission order, FIFO within a priority
	index int   // heap index, for O(log n) removal on shed
}

// taskQueue is a max-heap on (priority, -seq): highest priority first,
// FIFO within equal priorities.
type taskQueue []*queuedTask

func (q taskQueue) Len() int { return len(q) }
func (q taskQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	return q[i].seq < q[j].seq
}
func (q taskQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *taskQueue) Push(x any) {
	t := x.(*queuedTask)
	t.index = len(*q)
	*q = append(*q, t)
}
func (q *taskQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}

// Pool is a long-lived bounded worker pool — the job-manager substrate of
// the service layer, as opposed to ForEach's one-shot fan-outs. Tasks are
// queued by SubmitTask up to a fixed queue depth (admission
// control: a full queue rejects — or, for a higher-priority submission,
// sheds its lowest-priority queued task) and executed by a fixed set of
// workers, highest priority first and FIFO within a priority. Every task
// receives the pool's context, which Close cancels, so in-flight work
// shuts down promptly on teardown; Drain instead lets queued and running
// tasks finish.
type Pool struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	// depth is immutable after NewPool; everything below the mutex is
	// the admission state the workers and submitters race on.
	depth  int
	queue  taskQueue //teem:guards mu
	seq    int64     //teem:guards mu
	closed bool      //teem:guards mu
}

// NewPool starts workers goroutines servicing a queue of depth queue.
// workers <= 0 selects DefaultWorkers; queue <= 0 selects a queue as deep
// as the worker count.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if queue <= 0 {
		queue = workers
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		ctx:    ctx,
		cancel: cancel,
		depth:  queue,
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// Closed and drained: queued tasks always execute (Close
			// hands them a cancelled context), so an empty queue here
			// means there is nothing left to run.
			p.mu.Unlock()
			return
		}
		t := heap.Pop(&p.queue).(*queuedTask)
		p.mu.Unlock()
		t.Run(p.ctx)
		p.mu.Lock()
	}
}

// SubmitTask enqueues t without blocking. A full queue admits t only by
// displacing a queued task of strictly lower priority (the lowest, newest
// first; its Shed hook is invoked and its Run never happens) — otherwise
// ErrPoolFull. After Close or Drain every submission returns
// ErrPoolClosed; the closed state is checked under the same lock as the
// queue, so a submission racing the shutdown gets the sentinel, never a
// panic.
func (p *Pool) SubmitTask(t Task) error {
	if t.Run == nil {
		return errors.New("par: Submit needs a task")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	var victim *queuedTask
	if len(p.queue) >= p.depth {
		vi := -1
		for i, c := range p.queue {
			if c.Priority >= t.Priority {
				continue
			}
			// Shed the lowest priority; within it, the newest entry, so
			// the oldest admitted work keeps its place.
			if vi < 0 || c.Priority < p.queue[vi].Priority ||
				(c.Priority == p.queue[vi].Priority && c.seq > p.queue[vi].seq) {
				vi = i
			}
		}
		if vi < 0 {
			p.mu.Unlock()
			return ErrPoolFull
		}
		victim = p.queue[vi]
		heap.Remove(&p.queue, vi)
	}
	p.seq++
	heap.Push(&p.queue, &queuedTask{Task: t, seq: p.seq})
	p.cond.Signal()
	p.mu.Unlock()
	if victim != nil && victim.Shed != nil {
		victim.Shed()
	}
	return nil
}

// Drain stops accepting tasks, lets every queued and running task finish,
// and waits for the workers to exit. Safe to call more than once and
// concurrently with Close.
func (p *Pool) Drain() {
	p.shutdown(false)
}

// Close stops accepting tasks, cancels the pool context so running tasks
// abort promptly, and waits for the workers to exit. Queued tasks still
// execute, but with an already-cancelled context — a task that checks its
// context first thing turns into a cheap no-op.
func (p *Pool) Close() {
	p.shutdown(true)
}

func (p *Pool) shutdown(cancel bool) {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if cancel {
		p.cancel()
	}
	p.wg.Wait()
}
