package telemetry

import (
	"sync"
	"time"
)

// A Span is one RPC's trace: who called what, when, with which
// idempotency key, and how the time was spent across the serving
// stages (handler apply, journal append+fsync, ack). Spans are cheap
// records, not a distributed-tracing protocol: the ring exists so
// /debug/rpcs can answer "what has this server been doing" without a
// collector.
type Span struct {
	// RequestID is the call's idempotency key ("" for unstamped calls).
	RequestID string `json:"request_id,omitempty"`
	// Method is the fully-qualified RPC name ("scheduler.submit").
	Method string `json:"method"`
	User   string `json:"user,omitempty"`
	// Start is the wall-clock instant the server began the call.
	Start time.Time `json:"start"`
	// TotalMillis is the full server-side duration through ack.
	TotalMillis float64 `json:"total_ms"`
	// Stages breaks TotalMillis down; stage names are "handler" and
	// "journal" (append + group-commit fsync). A window hit, answered
	// without re-applying, has neither.
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

// TraceRing is a fixed-capacity ring of the most recent spans. Adds are
// O(1) under a mutex; the expected write rate (one per mutating RPC) is
// far below contention range, and reads copy out so renderers never
// hold the lock.
type TraceRing struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// NewTraceRing creates a ring holding the size most recent spans
// (default 256 when size <= 0).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		size = 256
	}
	return &TraceRing{buf: make([]Span, 0, size)}
}

// Add records one span. A nil ring drops it.
func (t *TraceRing) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % len(t.buf)
	}
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
	out := make([]Span, 0, len(t.buf))
	// Oldest-first is the ring order starting at next.
	for i := 0; i < len(t.buf); i++ {
		out = append(out, t.buf[(t.next+i)%len(t.buf)])
	}
	t.mu.Unlock()
	// Reverse to newest-first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
