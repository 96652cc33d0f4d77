package telemetry

import (
	"sync"
	"time"
)

// A Span is one RPC's trace: who called what, when, with which
// idempotency key, and how the time was spent across the serving
// stages. Spans are cheap records, not a distributed-tracing protocol:
// the ring exists so /debug/rpcs can answer "what has this server been
// doing" without a collector.
type Span struct {
	// RequestID is the call's idempotency key ("" for unstamped calls).
	RequestID string `json:"request_id,omitempty"`
	// Method is the fully-qualified RPC name ("scheduler.submit").
	Method string `json:"method"`
	User   string `json:"user,omitempty"`
	// Start is the wall-clock instant the server began the call.
	Start time.Time `json:"start"`
	// TotalMillis is the full server-side duration: through the reply's
	// encoding for a served call, through the commit for a local one.
	TotalMillis float64 `json:"total_ms"`
	// Stages breaks TotalMillis down into intervals that meet end to end,
	// in this order, whatever the call did: a served call's "decode" (the
	// request read and decoded) and "session" (method lookup, drain,
	// session and ACL check); then every call's "lock" (argument decode
	// and the wait for the deployment's lock), "handler" (the service's
	// apply, or a window hit's recorded result, with the journal record's
	// arguments and result), "journal" (enqueue, window record, unlock)
	// and "commit" (the group-commit fsync wait); then a served call's
	// "encode" (the reply encoded). A stage that did no work is near zero.
	Stages []Stage `json:"stages,omitempty"`
	// Err is the call's error text ("" on success).
	Err string `json:"error,omitempty"`
	// Dedup marks a duplicate suppressed by the idempotency window: the
	// recorded result was returned without re-applying.
	Dedup bool `json:"dedup,omitempty"`
	// Seq is the journal sequence the op was acknowledged under (0 when
	// storeless or deduplicated).
	Seq uint64 `json:"seq,omitempty"`
}

// Stage is one timed segment of a span.
type Stage struct {
	Name   string  `json:"name"`
	Millis float64 `json:"ms"`
}

// maxStages is the most stages a span has: a served call's seven.
const maxStages = 7

// An OpenSpan is a span still being timed. Open starts it; each Mark ends
// the running stage and starts the next at the same instant, one
// monotonic clock read per boundary, so the stages meet end to end and
// add up to the total; Close adds it to Ring. It holds its stages inline,
// so timing a call allocates nothing.
type OpenSpan struct {
	Span
	// Ring is where Close adds the span; nil drops it.
	Ring *TraceRing

	last   time.Duration // the running stage's start, since Start
	stages [maxStages]Stage
	n      int
}

// Open starts the span now.
func (o *OpenSpan) Open() {
	o.Start = time.Now()
	o.last = 0
}

// Mark ends the running stage as stage and returns its end, where the
// next stage starts, as the time since Start.
func (o *OpenSpan) Mark(stage string) time.Duration {
	now := time.Since(o.Start)
	o.stages[o.n] = Stage{Name: stage, Millis: millis(now - o.last)}
	o.n++
	o.last = now
	return now
}

// Close totals the span through its last boundary and adds it to Ring,
// once: Ring is nil after.
func (o *OpenSpan) Close() {
	o.TotalMillis = millis(o.last)
	o.Ring.add(o.Span, o.stages[:o.n])
	o.Ring = nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TraceRing is a fixed-capacity ring of the most recent spans, one per
// call. Adds are O(1) under a mutex and copy the stages into the ring's
// own slots; reads copy out so renderers never hold the lock.
type TraceRing struct {
	mu    sync.Mutex
	buf   []slot
	next  int
	total uint64
}

// slot is one span of the ring with its stages.
type slot struct {
	span   Span // Stages nil
	stages [maxStages]Stage
	n      int
}

// NewTraceRing creates a ring holding the size most recent spans
// (default 256 when size <= 0).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		size = 256
	}
	return &TraceRing{buf: make([]slot, 0, size)}
}

// add records span s with stages, copying both. A nil ring drops them.
func (t *TraceRing) add(s Span, stages []Stage) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, slot{})
	}
	sl := &t.buf[t.next]
	t.next = (t.next + 1) % cap(t.buf)
	sl.span = s
	sl.n = copy(sl.stages[:], stages)
	t.total++
	t.mu.Unlock()
}

// Total counts every span ever added, including those the ring has
// since overwritten.
func (t *TraceRing) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns up to limit spans, newest first (limit <= 0 means the
// whole ring).
func (t *TraceRing) Recent(limit int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.buf)
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]Span, n)
	stages := make([]Stage, 0, n*maxStages)
	for i := range out {
		// Newest first: the slot before next, and back from there.
		sl := &t.buf[(t.next-1-i+2*len(t.buf))%len(t.buf)]
		at := len(stages)
		stages = append(stages, sl.stages[:sl.n]...)
		out[i] = sl.span
		out[i].Stages = stages[at:len(stages):len(stages)]
	}
	return out
}
