package simgrid

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/vtime"
)

// The engine's previous event queue — container/heap over []*oracleEvent
// keyed on time.Time — kept verbatim as the oracle for the by-value
// tick-index queue that replaced it. Only names changed: every rule of
// Request, Schedule and boundary dispatch below is the replaced
// production code.

type oracleEvent struct {
	fireAt time.Time
	order  int
	at     time.Time
	seq    int64
	fn     func(now time.Time)
	wake   *oracleWake
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if !a.fireAt.Equal(b.fireAt) {
		return a.fireAt.Before(b.fireAt)
	}
	if a.order != b.order {
		return a.order < b.order
	}
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type oracleEngine struct {
	clock *vtime.SimClock
	start time.Time
	tick  time.Duration

	eq        oracleHeap
	seq       int64
	nextOrder int

	processing bool
	curAt      time.Time
	curOrder   int

	events int64
}

type oracleWake struct {
	e         *oracleEngine
	fn        func(now time.Time)
	order     int
	next      time.Time
	lastFired time.Time
}

func newOracleEngine(tick time.Duration) *oracleEngine {
	clock := vtime.NewSimClock()
	return &oracleEngine{clock: clock, start: clock.Now(), tick: tick}
}

func (e *oracleEngine) gridCeil(t time.Time) time.Time {
	d := t.Sub(e.start)
	if d <= 0 {
		return e.start
	}
	k := (d + e.tick - 1) / e.tick
	return e.start.Add(time.Duration(k) * e.tick)
}

func (e *oracleEngine) Register(fn func(now time.Time)) *oracleWake {
	w := &oracleWake{e: e, fn: fn, order: e.nextOrder}
	e.nextOrder++
	return w
}

func (w *oracleWake) Request(at time.Time) {
	e := w.e
	now := e.clock.Now()
	fireAt := e.gridCeil(at)
	if !fireAt.After(now) {
		if e.processing && now.Equal(e.curAt) && w.order > e.curOrder && !w.lastFired.Equal(now) {
			fireAt = now
		} else {
			fireAt = now.Add(e.tick)
		}
	}
	if !w.next.IsZero() && !w.next.After(fireAt) {
		return
	}
	w.next = fireAt
	e.seq++
	heap.Push(&e.eq, &oracleEvent{fireAt: fireAt, order: w.order, at: fireAt, seq: e.seq, wake: w})
}

func (e *oracleEngine) Schedule(delay time.Duration, fn func(now time.Time)) {
	now := e.clock.Now()
	at := now.Add(delay)
	fireAt := e.gridCeil(at)
	if !fireAt.After(now) {
		fireAt = now.Add(e.tick)
	}
	e.seq++
	heap.Push(&e.eq, &oracleEvent{fireAt: fireAt, order: orderTimer, at: at, seq: e.seq, fn: fn})
}

func (e *oracleEngine) processBoundary(t time.Time) {
	e.clock.AdvanceTo(t)
	e.processing, e.curAt, e.curOrder = true, t, math.MinInt
	for len(e.eq) > 0 && !e.eq[0].fireAt.After(t) {
		ev := heap.Pop(&e.eq).(*oracleEvent)
		fn := ev.fn
		if ev.wake != nil {
			w := ev.wake
			if !w.next.Equal(ev.fireAt) {
				continue
			}
			w.next = time.Time{}
			w.lastFired = ev.fireAt
			fn = w.fn
		}
		e.curOrder = ev.order
		e.events++
		fn(t)
	}
	e.processing = false
}

func (e *oracleEngine) Step() { e.processBoundary(e.clock.Now().Add(e.tick)) }

func (e *oracleEngine) RunFor(d time.Duration) {
	steps := int64((d + e.tick - 1) / e.tick)
	target := e.clock.Now().Add(time.Duration(steps) * e.tick)
	for len(e.eq) > 0 && !e.eq[0].fireAt.After(target) {
		e.processBoundary(e.eq[0].fireAt)
	}
	e.clock.AdvanceTo(target)
}

// scheduler is what the property test drives: the production engine and
// the oracle behind one face.
type scheduler interface {
	register(fn func(now time.Time)) (request func(at time.Time))
	schedule(delay time.Duration, fn func(now time.Time))
	step()
	runFor(d time.Duration)
	now() time.Time
	dispatched() int64
}

type prodScheduler struct{ e *Engine }

func (s prodScheduler) register(fn func(time.Time)) func(time.Time) {
	return s.e.Register(fn).Request
}
func (s prodScheduler) schedule(d time.Duration, fn func(time.Time)) { s.e.Schedule(d, fn) }
func (s prodScheduler) step()                                        { s.e.Step() }
func (s prodScheduler) runFor(d time.Duration)                       { s.e.RunFor(d) }
func (s prodScheduler) now() time.Time                               { return s.e.Now() }
func (s prodScheduler) dispatched() int64                            { return s.e.Events() }

type oracleScheduler struct{ e *oracleEngine }

func (s oracleScheduler) register(fn func(time.Time)) func(time.Time) {
	return s.e.Register(fn).Request
}
func (s oracleScheduler) schedule(d time.Duration, fn func(time.Time)) { s.e.Schedule(d, fn) }
func (s oracleScheduler) step()                                        { s.e.Step() }
func (s oracleScheduler) runFor(d time.Duration)                       { s.e.RunFor(d) }
func (s oracleScheduler) now() time.Time                               { return s.e.clock.Now() }
func (s oracleScheduler) dispatched() int64                            { return s.e.events }

// queueScript replays one seeded interleaving of Schedule / Request /
// dispatch on s and returns the dispatch log. Every random draw
// comes from the script's own source in an order fixed by the log so far,
// so two schedulers that dispatch alike see identical scripts — and the
// first divergence shows up as differing logs.
//
// Components react when fired: they request themselves again (the
// periodic idiom), request a component whose turn in the boundary is
// still ahead or already behind (same-boundary vs next-boundary landing),
// pile an earlier request on a pending later one (supersession),
// schedule sub-tick timers (same-boundary ties ordered by requested
// time, then sequence).
func queueScript(seed int64, s scheduler, tick time.Duration) []string {
	rng := rand.New(rand.NewSource(seed))
	const comps = 7
	var log []string
	epoch := s.now()
	stamp := func(what string, now time.Time) {
		log = append(log, fmt.Sprintf("%s@%d", what, now.Sub(epoch)/time.Nanosecond))
	}
	requests := make([]func(time.Time), comps)
	jitter := func() time.Duration {
		// Off-grid, on-grid, past and same-instant offsets alike.
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -time.Duration(rng.Intn(3)) * tick
		case 2:
			return time.Duration(rng.Intn(4)) * tick
		default:
			return time.Duration(rng.Int63n(int64(5 * tick)))
		}
	}
	timers := 0
	var addTimer func(delay time.Duration, depth int)
	addTimer = func(delay time.Duration, depth int) {
		timers++
		name := fmt.Sprintf("t%d", timers)
		s.schedule(delay, func(now time.Time) {
			stamp(name, now)
			if depth < 2 && rng.Intn(3) == 0 {
				addTimer(jitter(), depth+1)
			}
			if rng.Intn(2) == 0 {
				requests[rng.Intn(comps)](now.Add(jitter()))
			}
		})
	}
	for i := 0; i < comps; i++ {
		i := i
		requests[i] = s.register(func(now time.Time) {
			stamp(fmt.Sprintf("c%d", i), now)
			for n := rng.Intn(4); n > 0; n-- {
				switch rng.Intn(5) {
				case 0: // itself, again
					requests[i](now.Add(jitter()))
				case 1: // a component ahead in this boundary
					requests[min(i+1+rng.Intn(2), comps-1)](now)
				case 2: // a component behind in this boundary
					requests[max(i-1-rng.Intn(2), 0)](now)
				case 3: // a later request, then an earlier one on top
					j := rng.Intn(comps)
					requests[j](now.Add(time.Duration(3+rng.Intn(5)) * tick))
					requests[j](now.Add(time.Duration(rng.Intn(3)) * tick))
				case 4:
					addTimer(jitter(), 0)
				}
			}
		})
	}
	for round := 0; round < 60; round++ {
		for n := rng.Intn(6); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				requests[rng.Intn(comps)](s.now().Add(jitter()))
			case 1:
				addTimer(jitter(), 0)
			case 2:
				// Same requested instant twice: sequence breaks the tie.
				d := jitter()
				addTimer(d, 0)
				addTimer(d, 0)
			}
		}
		if rng.Intn(3) == 0 {
			s.runFor(time.Duration(1+rng.Intn(9)) * tick)
		} else {
			s.step()
		}
		stamp(fmt.Sprintf("round%d/%d", round, s.dispatched()), s.now())
	}
	return log
}

// TestQueueMatchesHeapOracle holds the by-value tick-index queue to the
// container/heap implementation it replaced: on random interleavings of
// Schedule, Wake.Request and dispatch the two engines must fire
// the same callbacks at the same instants in the same order, and count
// the same events.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for _, tick := range []time.Duration{time.Second, time.Second / 128, 7 * time.Millisecond} {
		for seed := int64(1); seed <= 40; seed++ {
			got := queueScript(seed, prodScheduler{NewEngine(tick)}, tick)
			want := queueScript(seed, oracleScheduler{newOracleEngine(tick)}, tick)
			if !slices.Equal(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("tick %v seed %d: dispatch %d diverged: queue %v, oracle %v",
							tick, seed, i, got[max(i-3, 0):min(i+1, len(got))], want[max(i-3, 0):i+1])
					}
				}
				t.Fatalf("tick %v seed %d: queue dispatched %d entries, oracle %d", tick, seed, len(got), len(want))
			}
			if len(got) < 100 {
				t.Fatalf("tick %v seed %d: vacuous script (%d log entries)", tick, seed, len(got))
			}
		}
	}
}

// TestQueuePopsInOrder checks the heap on its own: any push order pops
// sorted by (tick, order, at, seq), through interleaved pushes and pops.
func TestQueuePopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var popped []event
	pushed := 0
	for round := 0; round < 2000; round++ {
		if len(q) > 0 && rng.Intn(3) == 0 {
			popped = append(popped, q.pop())
			continue
		}
		pushed++
		// Never below what was already popped, as in the engine (events
		// are scheduled at or after the boundary being dispatched).
		base := int64(0)
		if len(popped) > 0 {
			base = popped[len(popped)-1].tick
		}
		ev := event{tick: base + int64(rng.Intn(4)), order: rng.Intn(3) - 1, at: int64(rng.Intn(3)), seq: int64(pushed)}
		if len(popped) > 0 && ev.before(&popped[len(popped)-1]) {
			ev.tick++
		}
		q.push(ev)
	}
	for len(q) > 0 {
		popped = append(popped, q.pop())
	}
	if len(popped) != pushed {
		t.Fatalf("popped %d events, pushed %d", len(popped), pushed)
	}
	for i := 1; i < len(popped); i++ {
		if popped[i].before(&popped[i-1]) {
			t.Fatalf("pop %d (%+v) sorts before pop %d (%+v)", i, popped[i], i-1, popped[i-1])
		}
	}
}

// countCompleter counts the completions it is told of.
type countCompleter struct{ n int }

func (c *countCompleter) Complete(*Task) { c.n++ }

// TestQueueAllocationFree pins the point of holding events by value: once
// the queue has grown to its working size, a Wake.Request and its
// dispatch allocate nothing, and neither does a Schedule of an existing
// function value. The node leg pins the completion path: a task placed on
// a node runs out through the node's inline Wake and tells its Completer,
// allocating nothing but the task.
func TestQueueAllocationFree(t *testing.T) {
	t.Run("node", func(t *testing.T) {
		e := NewEngine(time.Second)
		n := newNode(e, "n", "s", 1, nil)
		var c countCompleter
		var last *Task
		run := func() {
			last = NewTaskFor(1, &c) // one tick of work at Mips 1
			n.Place(last)
			e.Step()
		}
		run() // grow the node's task list and buffer, and the queue, once
		if avg := testing.AllocsPerRun(200, run); avg != 1 {
			t.Errorf("a task's placement and completion allocate %.1f times, want 1 (the task)", avg)
		}
		if c.n != 202 || last.State() != TaskDone || n.TaskCount() != 0 {
			t.Fatalf("completer told %d times, last task %v, %d tasks left; want 202, done, 0", c.n, last.State(), n.TaskCount())
		}
	})

	e := NewEngine(time.Second)
	fires := 0
	w := e.Register(func(time.Time) { fires++ })
	timer := func(time.Time) { fires++ }
	// Grow the queue (and the clock's internals) once.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Second, timer)
	}
	e.RunFor(100 * time.Second)
	fires = 0
	if avg := testing.AllocsPerRun(200, func() {
		w.Request(e.Now())
		e.Step()
	}); avg != 0 {
		t.Errorf("Wake.Request + dispatch allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.Schedule(0, timer)
		e.Step()
	}); avg != 0 {
		t.Errorf("Schedule + dispatch allocates %.1f times per run, want 0", avg)
	}
	if fires != 2*201 {
		t.Fatalf("fired %d callbacks, want %d", fires, 2*201)
	}
}
