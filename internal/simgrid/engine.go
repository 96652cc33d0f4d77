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
// scales with work performed, not with simulated duration. The legacy
// fixed-tick driver (visit every boundary; see Driver) and the Actor
// compatibility layer (a registered actor becomes a self-rescheduling
// once-per-tick event) are retained, and both drivers produce identical
// traces by construction. All randomness flows from a single seeded
// source, making every experiment reproducible bit for bit.
package simgrid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Driver selects how RunFor and RunUntil advance the simulation.
type Driver int

const (
	// DriverEvent jumps the clock from scheduled event to scheduled
	// event, skipping tick boundaries where nothing is due. This is the
	// default: sparse scenarios cost what their events cost, not what
	// their duration costs.
	DriverEvent Driver = iota
	// DriverTick visits every tick boundary, due events or not — the
	// legacy fixed-tick loop. Traces are identical to DriverEvent (the
	// extra boundaries are empty); the tick-vs-event equivalence suite
	// pins that property.
	DriverTick
)

// Actor is a component that evolves with simulated time. OnTick is called
// once per engine step with the post-advance time and the tick duration.
//
// Actor is the compatibility layer over the event queue: AddActor wraps
// the actor in a self-rescheduling once-per-tick event, so legacy
// per-tick components keep working under either driver (at the cost of
// forcing every boundary to be visited while registered).
type Actor interface {
	OnTick(now time.Time, dt time.Duration)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(now time.Time, dt time.Duration)

// OnTick implements Actor.
func (f ActorFunc) OnTick(now time.Time, dt time.Duration) { f(now, dt) }

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
// a boundary, mirroring the legacy Step order (timers first, then actors
// in registration order).
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
type Engine struct {
	mu     sync.Mutex
	clock  *vtime.SimClock
	start  time.Time
	tick   time.Duration
	rng    *rand.Rand
	driver Driver

	eq        eventQueue
	seq       int64
	nextOrder int

	// nowTick is the clock's position as a tick index (the clock reads
	// start + nowTick·tick; only the engine advances it). processing and
	// curOrder are the cursor within the boundary being dispatched, so
	// wake requests made mid-boundary land on the same boundary exactly
	// when the legacy per-tick actor order would have reached them.
	nowTick    int64
	processing bool
	curOrder   int

	ticks  int64 // boundaries visited
	events int64 // events dispatched

	actors []actorEntry
}

type actorEntry struct {
	actor Actor
	wake  *Wake
}

// NewEngine creates an engine with the given tick and RNG seed. A zero or
// negative tick defaults to one second.
func NewEngine(tick time.Duration, seed int64) *Engine {
	if tick <= 0 {
		tick = time.Second
	}
	clock := vtime.NewSimClock(time.Time{})
	return &Engine{
		clock: clock,
		start: clock.Now(),
		tick:  tick,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Clock exposes the engine's simulated clock for services that need a
// vtime.Clock.
func (e *Engine) Clock() *vtime.SimClock { return e.clock }

// Now returns the current simulated time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Tick returns the engine's time resolution.
func (e *Engine) Tick() time.Duration { return e.tick }

// Rand returns the engine's deterministic random source. Callers must use
// it only from the simulation goroutine.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetDriver selects the RunFor/RunUntil clock-advance strategy. The
// default is DriverEvent; DriverTick restores the legacy visit-every-tick
// loop. Traces are identical either way.
func (e *Engine) SetDriver(d Driver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.driver = d
}

// Driver returns the current clock-advance strategy.
func (e *Engine) Driver() Driver {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.driver
}

// Ticks returns the number of tick boundaries visited so far. Under
// DriverTick this is the legacy step count; under DriverEvent only
// boundaries with scheduled events are visited (plus one per Step call).
func (e *Engine) Ticks() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ticks
}

// Events returns the number of events dispatched so far — the
// discrete-event engine's work counter, reported by the scenario
// benchmarks.
func (e *Engine) Events() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events
}

// AlignTicks rounds d up to a whole number of ticks (minimum one) — the
// period a legacy elapsed-accumulator actor with threshold d would
// effectively fire at.
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

// Wake is a registered component's slot in the event queue. A component
// holds one Wake and asks to be run at (or after) chosen instants; the
// engine fires it at most once per tick boundary, ordered against other
// components by registration order — exactly where the legacy tick loop
// would have reached it. Requests coalesce: the earliest pending request
// wins.
type Wake struct {
	e     *Engine
	fn    func(now time.Time)
	order int
	// next is the tick index of the earliest pending request and lastFired
	// that of the latest firing; 0 (the start, where nothing ever fires)
	// means none. Guarded by e.mu.
	next      int64
	lastFired int64
	canceled  bool
}

// Register adds a component to the engine and returns its Wake. The
// registration order is the component's position within a tick boundary,
// matching where AddActor would have placed it in the legacy loop.
func (e *Engine) Register(fn func(now time.Time)) *Wake {
	if fn == nil {
		panic("simgrid: Register with nil function")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	w := &Wake{e: e, fn: fn, order: e.nextOrder}
	e.nextOrder++
	return w
}

// Request asks for the component to run at the first legal tick boundary
// at or after at. "Legal" preserves the legacy once-per-tick actor
// semantics: a request for the current boundary is honored only if the
// component's turn (its registration order) has not yet passed in the
// boundary being processed and it has not already fired there; otherwise
// it lands on the next boundary. Requests never postpone an
// earlier-or-equal pending request.
func (w *Wake) Request(at time.Time) {
	e := w.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if w.canceled {
		return
	}
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

// Cancel drops any pending request and disables the wake permanently.
func (w *Wake) Cancel() {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	w.canceled = true
	w.next = 0
}

// Poller runs a function on a periodic schedule driven by a Wake: the
// engine wakes it only at poll boundaries, and the interval function is
// re-read at every wakeup, so intervals configured after construction
// (but before the simulation runs) take effect from the first poll and
// later changes apply from the next one. The poll cadence matches the
// legacy elapsed-accumulator actors: the interval rounds up to whole
// ticks, counted from the previous poll.
type Poller struct {
	e        *Engine
	w        *Wake
	interval func() time.Duration
	fn       func(now time.Time)
	mu       sync.Mutex
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
	p.w = e.Register(p.onWake)
	p.w.Request(p.last.Add(e.tick))
	return p
}

func (p *Poller) onWake(now time.Time) {
	period := p.e.AlignTicks(p.interval())
	p.mu.Lock()
	due := p.last.Add(period)
	if now.Before(due) {
		p.mu.Unlock()
		p.w.Request(due)
		return
	}
	p.last = now
	p.mu.Unlock()
	p.w.Request(now.Add(period))
	p.fn(now)
}

// horizonFor reports the instant up to which a component with the given
// registration order is current: mid-boundary, components whose turn has
// not yet come see state as of the previous boundary, exactly as they
// would have in the legacy tick loop.
func (e *Engine) horizonFor(order int) time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.processing && order > e.curOrder {
		return e.timeOf(e.nowTick - 1)
	}
	return e.timeOf(e.nowTick)
}

// AddActor registers a legacy actor: it becomes a self-rescheduling
// once-per-tick event, invoked at every boundary in registration order.
// While any actor is registered, every tick boundary is visited, so the
// event driver degrades gracefully to the legacy cadence.
func (e *Engine) AddActor(a Actor) {
	var w *Wake
	w = e.Register(func(now time.Time) {
		a.OnTick(now, e.tick)
		w.Request(now.Add(e.tick))
	})
	e.mu.Lock()
	e.actors = append(e.actors, actorEntry{actor: a, wake: w})
	e.mu.Unlock()
	w.Request(e.Now().Add(e.tick))
}

// RemoveActor unregisters a previously added actor. Pointer actors compare
// by identity; ActorFunc values compare by code pointer.
func (e *Engine) RemoveActor(a Actor) {
	e.mu.Lock()
	var w *Wake
	for i, entry := range e.actors {
		if sameActor(entry.actor, a) {
			w = entry.wake
			e.actors = append(e.actors[:i], e.actors[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	if w != nil {
		w.Cancel()
	}
}

func sameActor(a, b Actor) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Func || vb.Kind() == reflect.Func {
		return va.Kind() == vb.Kind() && va.Pointer() == vb.Pointer()
	}
	if va.Type() != vb.Type() {
		return false
	}
	if !va.Comparable() {
		return false
	}
	return a == b
}

// Schedule runs fn once the simulated clock has advanced by delay,
// quantized up to the next tick-grid boundary (the tick is the
// simulation's time resolution). Timers with equal deadlines fire in
// scheduling order, before any component due at the same boundary.
//
// A callback scheduled for the current instant — delay ≤ 0, whether
// between boundaries or during event dispatch — never fires in the same
// pass: it runs at the NEXT tick boundary. This is pinned by
// TestScheduleCurrentInstantFiresNextBoundary and matches the legacy
// fixed-tick behavior ("non-positive delays fire on the next step").
func (e *Engine) Schedule(delay time.Duration, fn func(now time.Time)) {
	if fn == nil {
		panic("simgrid: Schedule with nil function")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
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

// nextEventTick peeks the earliest pending boundary.
func (e *Engine) nextEventTick() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.eq) == 0 {
		return 0, false
	}
	return e.eq[0].tick, true
}

// jumpTo moves the clock to boundary k without dispatching anything.
func (e *Engine) jumpTo(k int64) {
	e.clock.AdvanceTo(e.timeOf(k))
	e.mu.Lock()
	e.nowTick = max(e.nowTick, k)
	e.mu.Unlock()
}

// processBoundary advances the clock to boundary k and dispatches every
// event due there, in (boundary, order, requested-time, sequence) order.
// Events scheduled during dispatch for the same boundary run in the same
// pass when their component's turn is still ahead.
func (e *Engine) processBoundary(k int64) {
	t := e.timeOf(k)
	e.clock.AdvanceTo(t)
	e.mu.Lock()
	e.nowTick, e.processing, e.curOrder = k, true, math.MinInt
	e.ticks++
	for len(e.eq) > 0 && e.eq[0].tick <= k {
		ev := e.eq.pop()
		fn := ev.fn
		if w := ev.wake; w != nil {
			if w.canceled || w.next != ev.tick {
				continue // superseded or canceled request
			}
			w.next, w.lastFired = 0, ev.tick
			fn = w.fn
		}
		e.curOrder = ev.order
		e.events++
		e.mu.Unlock()
		fn(t)
		e.mu.Lock()
	}
	e.processing = false
	e.mu.Unlock()
}

// tickNow returns the clock's position as a tick index.
func (e *Engine) tickNow() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nowTick
}

// Step advances the simulation by exactly one tick, dispatching whatever
// is due at that boundary — the legacy fixed-tick step.
func (e *Engine) Step() {
	e.processBoundary(e.tickNow() + 1)
}

// RunFor advances the simulation by d (rounded up to whole ticks). Under
// DriverEvent the clock jumps from scheduled boundary to scheduled
// boundary and then straight to the target; under DriverTick every
// boundary is visited.
func (e *Engine) RunFor(d time.Duration) {
	steps := int64((d + e.tick - 1) / e.tick)
	if e.Driver() == DriverTick {
		for i := int64(0); i < steps; i++ {
			e.Step()
		}
		return
	}
	target := e.tickNow() + steps
	for {
		k, ok := e.nextEventTick()
		if !ok || k > target {
			break
		}
		e.processBoundary(k)
	}
	e.jumpTo(target)
}

// RunUntil advances the simulation until pred returns true, or fails once
// more than max simulated time has elapsed. pred is evaluated after every
// processed boundary; state observed by pred only changes through events,
// so skipping empty boundaries cannot delay detection.
func (e *Engine) RunUntil(pred func() bool, max time.Duration) error {
	deadline := e.Now().Add(max)
	// The tick loop keeps stepping while now ≤ deadline, so the last
	// boundary it processes — and where it leaves the clock on timeout —
	// is the first grid boundary strictly after the deadline. The event
	// driver must honor the same limit (not the raw deadline, which may
	// lie off-grid) or the two drivers would diverge on events landing
	// in that final overshoot step.
	limit := e.tickCeil(deadline)
	if !e.timeOf(limit).After(deadline) {
		limit++
	}
	for !pred() {
		if e.Now().After(deadline) {
			return fmt.Errorf("simgrid: condition not reached within %v (now %v)", max, e.Now())
		}
		if e.Driver() == DriverTick {
			e.Step()
			continue
		}
		k, ok := e.nextEventTick()
		if !ok || k > limit {
			// Nothing left inside the window can change pred; jump to the
			// overshoot boundary so the next iteration reports the timeout
			// with the clock exactly where the tick driver would leave it.
			e.jumpTo(limit)
			continue
		}
		e.processBoundary(k)
	}
	return nil
}
