// Package simgrid is a deterministic discrete-event grid simulator: the
// hardware substrate of the GAE reproduction.
//
// The paper ran its experiments on physical Condor pools at Caltech and
// NUST; we replace the physical layer with simulated sites, each holding
// CPU nodes whose availability varies under a configurable background
// load, connected by network links with finite bandwidth and latency, and
// hosting storage elements with named files. Everything above this package
// (the Condor-like execution service, the estimators, the steering
// service) interacts with the grid only through these types, so swapping
// in real hardware would be a matter of reimplementing these interfaces.
//
// Time is kept by a vtime.SimClock with a fixed tick as the simulation's
// time resolution: every observable action (timer firing, task
// completion, negotiation pass, monitor sample) lands on a tick-grid
// boundary. The engine is event-driven — it keeps a priority queue of
// scheduled events and jumps the clock straight from boundary to
// boundary, skipping grid points where nothing is scheduled — so cost
// scales with work performed, not with simulated duration. The queue is
// the one way anything waits on simulated time: the clock itself only
// reads and advances, and nothing blocks on it. Outside dispatch nothing
// is due at or before the current boundary, so however a span is cut
// into RunFor calls it leaves the same trace, which the equivalence
// suites pin. Nothing here draws random numbers — NoisyLoad's noise is a
// hash of its seed and the second — so every experiment is reproducible
// bit for bit.
//
// CPU work is accounted exactly: in integer micro-CPU-seconds, at rates
// quantised once where a load segment or a node's occupancy changes, with
// the per-tick division remainder carried (node.go). Work done over ticks
// [a,b) and then [b,c) is the work done over [a,c) by construction, so a
// node settles any span in one step per load segment and a completion
// boundary is a ceiling division.
//
// A site's storage element holds named files, Put and Get; it moves
// nothing itself. Staging a file is a transfer on the Network
// (StartTransfer, a flow sharing its link with the others in flight)
// followed by a Put at the destination when the flow lands, which is how
// the scheduler stages. Placing a task on a node is the execution
// service's decision; this package offers no placement policy.
package simgrid

import (
	"fmt"
	"math"
	"time"

	"repro/internal/vtime"
)

// event is one scheduled callback in the engine's queue. Events are held
// by value: scheduling one allocates nothing.
type event struct {
	tick  int64 // index of the grid boundary at which the event runs
	at    int64 // requested instant in ns since start (pre-quantization), for timer ordering
	seq   int64 // scheduling sequence, final tiebreak
	order int   // component order; orderTimer for Schedule timers
	fn    func(now time.Time)
	wake  *Wake // non-nil for component wake events
}

// orderTimer sorts Schedule timers ahead of every registered component at
// a boundary: timers first, then components in registration order.
const orderTimer = -1

// before is the dispatch order: boundary, component order, requested
// time, scheduling sequence.
func (a *event) before(b *event) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	if a.order != b.order {
		return a.order < b.order
	}
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of event values ordered by before: half
// the depth of a binary heap, and a node's children share cache lines.
type eventQueue []event

const queueArity = 4

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / queueArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback references
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := i*queueArity + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+queueArity, n); c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// Engine owns the simulated clock and the event queue. A default tick of
// one second matches the resolution of the paper's figures (seconds on
// every axis); the tick is the simulation's time resolution — every event
// fires on a multiple of it.
//
// An engine is used from one goroutine at a time; a deployment that serves
// calls beside a running engine orders them itself, stepping the engine
// with Advance one boundary at a time.
type Engine struct {
	clock *vtime.SimClock
	start time.Time
	tick  time.Duration

	eq        eventQueue
	seq       int64
	nextOrder int

	// nowTick is the clock's position as a tick index (the clock reads
	// start + nowTick·tick; only the engine advances it). processing and
	// curOrder are the cursor within the boundary being dispatched, so a
	// wake requested mid-boundary lands on the same boundary exactly when
	// the component's turn is still ahead.
	nowTick    int64
	processing bool
	curOrder   int

	ticks  int64 // boundaries visited
	events int64 // events dispatched
}

// NewEngine creates an engine with the given tick. A zero or negative tick
// defaults to one second.
func NewEngine(tick time.Duration) *Engine {
	if tick <= 0 {
		tick = time.Second
	}
	clock := vtime.NewSimClock()
	return &Engine{
		clock: clock,
		start: clock.Now(),
		tick:  tick,
	}
}

// Clock exposes the engine's simulated clock for services that need a
// vtime.Clock.
func (e *Engine) Clock() *vtime.SimClock { return e.clock }

// Now returns the current simulated time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Tick returns the engine's time resolution.
func (e *Engine) Tick() time.Duration { return e.tick }

// Ticks returns the number of tick boundaries visited so far: those with
// scheduled events.
func (e *Engine) Ticks() int64 { return e.ticks }

// Events returns the number of events dispatched so far — the
// discrete-event engine's work counter, reported by the scenario
// benchmarks.
func (e *Engine) Events() int64 { return e.events }

// AlignTicks rounds d up to a whole number of ticks (minimum one) — the
// period at which a component polling every d actually fires.
func (e *Engine) AlignTicks(d time.Duration) time.Duration {
	k := (d + e.tick - 1) / e.tick
	if k < 1 {
		k = 1
	}
	return time.Duration(k) * e.tick
}

// tickCeil returns the index of the earliest tick-grid boundary at or
// after t (0, the start, for anything earlier).
func (e *Engine) tickCeil(t time.Time) int64 {
	d := t.Sub(e.start)
	if d <= 0 {
		return 0
	}
	return int64((d + e.tick - 1) / e.tick)
}

// timeOf returns the instant of tick-grid boundary k.
func (e *Engine) timeOf(k int64) time.Time {
	return e.start.Add(time.Duration(k) * e.tick)
}

// component is what the engine runs when a Wake fires. Node, Network and
// Poller implement it themselves and hold their Wake by value, so firing
// one touches the component and nothing allocated beside it; Register
// wraps a function in wakeFunc.
type component interface{ onWake(now time.Time) }

// wakeFunc is a registered function as a component.
type wakeFunc func(now time.Time)

func (f wakeFunc) onWake(now time.Time) { f(now) }

// Wake is a registered component's slot in the event queue. A component
// holds one Wake and asks to be run at (or after) chosen instants; the
// engine fires it at most once per tick boundary, ordered against other
// components by registration order. Requests coalesce: the earliest
// pending request wins. The simulator's own components hold their Wake
// inline (see component); a function registered with Register gets one
// of its own.
type Wake struct {
	e     *Engine
	c     component
	order int
	// next is the tick index of the earliest pending request and lastFired
	// that of the latest firing; 0 (the start, where nothing ever fires)
	// means none.
	next      int64
	lastFired int64
}

// Register adds a component, the function fn, to the engine and returns
// its Wake. The registration order is the component's position within a
// tick boundary.
func (e *Engine) Register(fn func(now time.Time)) *Wake {
	if fn == nil {
		panic("simgrid: Register with nil function")
	}
	w := new(Wake)
	e.register(w, wakeFunc(fn))
	return w
}

// register makes w, held by c, the Wake of component c, next in
// registration order.
func (e *Engine) register(w *Wake, c component) {
	*w = Wake{e: e, c: c, order: e.nextOrder}
	e.nextOrder++
}

// Request asks for the component to run at the first legal tick boundary
// at or after at. "Legal" keeps a component to one firing per boundary,
// in registration order: a request for the current boundary is honored
// only if the component's turn has not yet passed in the boundary being
// processed and it has not already fired there; otherwise it lands on the
// next boundary. Requests never postpone an earlier-or-equal pending
// request.
func (w *Wake) Request(at time.Time) {
	e := w.e
	k := e.tickCeil(at)
	if k <= e.nowTick {
		if e.processing && w.order > e.curOrder && w.lastFired != e.nowTick {
			k = e.nowTick
		} else {
			k = e.nowTick + 1
		}
	}
	if w.next != 0 && w.next <= k {
		return
	}
	w.next = k
	e.seq++
	e.eq.push(event{tick: k, at: k * int64(e.tick), seq: e.seq, order: w.order, wake: w})
}

// Poller runs a function on a periodic schedule driven by a Wake: the
// engine wakes it only at poll boundaries, and the interval function is
// re-read at every wakeup, so intervals configured after construction
// (but before the simulation runs) take effect from the first poll and
// later changes apply from the next one. The interval rounds up to whole
// ticks, counted from the previous poll.
type Poller struct {
	e        *Engine
	w        Wake
	interval func() time.Duration
	fn       func(now time.Time)
	last     time.Time
}

// NewPoller registers a periodic component. Its first wakeup lands on
// the very next boundary (to pick up interval configuration made after
// construction); polls then run every interval() from construction time.
func (e *Engine) NewPoller(interval func() time.Duration, fn func(now time.Time)) *Poller {
	if interval == nil || fn == nil {
		panic("simgrid: NewPoller needs an interval source and a function")
	}
	p := &Poller{e: e, interval: interval, fn: fn, last: e.Now()}
	e.register(&p.w, p)
	p.w.Request(p.last.Add(e.tick))
	return p
}

func (p *Poller) onWake(now time.Time) {
	period := p.e.AlignTicks(p.interval())
	if due := p.last.Add(period); now.Before(due) {
		p.w.Request(due)
		return
	}
	p.last = now
	p.w.Request(now.Add(period))
	p.fn(now)
}

// horizonFor reports the boundary (as a tick index) up to which a
// component with the given registration order is current: mid-boundary,
// components whose turn has not yet come see state as of the previous
// boundary — the ordering contract the equivalence suites pin.
func (e *Engine) horizonFor(order int) int64 {
	if e.processing && order > e.curOrder {
		return e.nowTick - 1
	}
	return e.nowTick
}

// Schedule runs fn once the simulated clock has advanced by delay,
// quantized up to the next tick-grid boundary (the tick is the
// simulation's time resolution). Timers with equal deadlines fire in
// scheduling order, before any component due at the same boundary.
//
// A callback scheduled for the current instant — delay ≤ 0, whether
// between boundaries or during event dispatch — never fires in the same
// pass: it runs at the NEXT tick boundary. This is pinned by
// TestScheduleCurrentInstantFiresNextBoundary.
func (e *Engine) Schedule(delay time.Duration, fn func(now time.Time)) {
	if fn == nil {
		panic("simgrid: Schedule with nil function")
	}
	at := e.nowTick*int64(e.tick) + int64(delay)
	k := int64(0)
	if at > 0 {
		k = (at + int64(e.tick) - 1) / int64(e.tick)
	}
	if k <= e.nowTick {
		k = e.nowTick + 1
	}
	e.seq++
	e.eq.push(event{tick: k, at: at, seq: e.seq, order: orderTimer, fn: fn})
}

// jumpTo moves the clock to boundary k without dispatching anything.
func (e *Engine) jumpTo(k int64) {
	e.clock.AdvanceTo(e.timeOf(k))
	e.nowTick = max(e.nowTick, k)
}

// processBoundary advances the clock to boundary k and dispatches every
// event due there, in (boundary, order, requested-time, sequence) order.
// Events scheduled during dispatch for the same boundary run in the same
// pass when their component's turn is still ahead.
func (e *Engine) processBoundary(k int64) {
	t := e.timeOf(k)
	e.clock.AdvanceTo(t)
	e.nowTick, e.processing, e.curOrder = k, true, math.MinInt
	e.ticks++
	for len(e.eq) > 0 && e.eq[0].tick <= k {
		ev := e.eq.pop()
		w := ev.wake
		if w != nil {
			if w.next != ev.tick {
				continue // superseded request
			}
			w.next, w.lastFired = 0, ev.tick
		}
		e.curOrder = ev.order
		e.events++
		if w != nil {
			w.c.onWake(t)
		} else {
			ev.fn(t)
		}
	}
	e.processing = false
}

// Advance is the engine's one step: it dispatches the earliest boundary
// with events due at or before limit and reports true, or, with none due
// there, moves the clock to limit and reports false. A limit off the tick
// grid stands for the first boundary after it. RunFor and RunUntil are
// loops over Advance; so is a deployment that holds a lock for one
// boundary at a time.
func (e *Engine) Advance(limit time.Time) bool {
	lim := e.tickCeil(limit)
	if len(e.eq) == 0 || e.eq[0].tick > lim {
		e.jumpTo(lim)
		return false
	}
	e.processBoundary(e.eq[0].tick)
	return true
}

// Horizon returns the boundary RunFor(d) stops at: d rounded up to whole
// ticks past the current one.
func (e *Engine) Horizon(d time.Duration) time.Time {
	return e.timeOf(e.nowTick + int64((d+e.tick-1)/e.tick))
}

// RunFor advances the simulation by d (rounded up to whole ticks): the
// clock jumps from scheduled boundary to scheduled boundary and then
// straight to the target.
func (e *Engine) RunFor(d time.Duration) {
	limit := e.Horizon(d)
	for e.Advance(limit) {
	}
}

// RunUntil advances the simulation until pred returns true, or fails once
// more than max simulated time has elapsed. pred is evaluated after every
// processed boundary; state observed by pred only changes through events,
// so skipping empty boundaries cannot delay detection.
func (e *Engine) RunUntil(pred func() bool, max time.Duration) error {
	deadline := e.Now().Add(max)
	// The window ends at the first grid boundary strictly after the
	// deadline, whose events still fire. Once Advance finds nothing due
	// up to it, it moves the clock there, past the deadline, and the next
	// iteration reports the timeout.
	k := e.tickCeil(deadline)
	if !e.timeOf(k).After(deadline) {
		k++
	}
	limit := e.timeOf(k)
	for !pred() {
		if e.Now().After(deadline) {
			return fmt.Errorf("simgrid: condition not reached within %v (now %v)", max, e.Now())
		}
		e.Advance(limit)
	}
	return nil
}
