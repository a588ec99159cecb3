package service

import (
	"context"
	"encoding/json"
	"sync"

	"teem/internal/obs"
)

// traceKeep bounds the service-wide span ring: the last traceKeep spans
// are replayable by /trace subscribers; older spans age out. The journal
// and per-job telemetry streams remain the durable records — the ring is
// the low-cost live view.
const traceKeep = 4096

// eventLog is an append-only sequence of NDJSON-encoded lines that any
// number of followers replay from the start and then follow live. A
// job's telemetry stream is unbounded and closes when the job finishes,
// so a stream opened after the job finished still serves every sample.
// The service-wide span ring keeps only the last traceKeep lines and
// never closes — it lives as long as the service — so its followers
// stop on their own context, not on end-of-stream.
type eventLog struct {
	keep int // lines retained; 0 = unbounded
	mu   sync.Mutex
	cond *sync.Cond
	// lines holds the retained lines; start is the absolute sequence
	// number of lines[0], so a follower survives eviction.
	lines  [][]byte //teem:guards mu
	start  int64    //teem:guards mu
	closed bool     //teem:guards mu
}

func newEventLog(keep int) *eventLog {
	l := &eventLog{keep: keep}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// publish marshals one event and appends it as an NDJSON line, evicting
// the oldest line past keep. Events that fail to marshal are dropped —
// the log is telemetry, not the system of record (the job result and
// the journal are).
func (l *eventLog) publish(ev any) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	l.mu.Lock()
	if !l.closed {
		l.lines = append(l.lines, raw)
		if l.keep > 0 && len(l.lines) > l.keep {
			n := len(l.lines) - l.keep
			l.lines = append(l.lines[:0], l.lines[n:]...)
			l.start += int64(n)
		}
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// close marks the end of the log and wakes every follower.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// wake prods blocked followers so they can notice a cancelled context.
func (l *eventLog) wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// waitFrom returns every retained line at or after absolute sequence
// seq and the sequence to resume from. With block it first waits while
// nothing newer exists, the log is open and ctx is live (followers
// arrange a wake on cancellation). A seq older than the oldest retained
// line resumes there — the evicted lines are gone. closed reports that
// no further lines will ever arrive.
func (l *eventLog) waitFrom(ctx context.Context, seq int64, block bool) (lines [][]byte, next int64, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for block && seq >= l.start+int64(len(l.lines)) && !l.closed && ctx.Err() == nil {
		l.cond.Wait()
	}
	if seq < l.start {
		seq = l.start
	}
	if i := seq - l.start; i < int64(len(l.lines)) {
		lines = l.lines[i:]
		if l.keep > 0 {
			// Copy the slice headers under the lock: eviction shifts
			// elements within the backing array, so an aliasing
			// sub-slice would race with writers. The []byte contents
			// are write-once, so a shallow copy is safe.
			lines = append([][]byte(nil), lines...)
		}
	}
	return lines, l.start + int64(len(l.lines)), l.closed
}

// follow replays the log from the beginning, invoking emit for every
// NDJSON line (newline included). With live it then blocks for new
// lines until the log closes, emit fails, or ctx is cancelled; without,
// it returns after the replay — the snapshot mode tooling uses to poll.
func (l *eventLog) follow(ctx context.Context, live bool, emit func(line []byte) error) error {
	stop := context.AfterFunc(ctx, l.wake)
	defer stop()
	var seq int64
	for {
		lines, next, closed := l.waitFrom(ctx, seq, live)
		for _, ln := range lines {
			if err := emit(ln); err != nil {
				return err
			}
		}
		seq = next
		if err := ctx.Err(); err != nil {
			if !live {
				return nil
			}
			return err
		}
		if len(lines) == 0 && (closed || !live) {
			return nil
		}
	}
}

// span emits one lifecycle span for a job to the service-wide span ring.
// The timestamp is stamped here so every emission site stays one line.
func (s *Service) span(j *Job, phase, detail string, attempt int) {
	s.spans.publish(obs.Span{
		Trace:   j.TraceID,
		Job:     j.ID,
		Phase:   phase,
		At:      now().UTC(),
		Tenant:  j.Req.Tenant,
		Attempt: attempt,
		Detail:  detail,
	})
}
