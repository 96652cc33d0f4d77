package simgrid

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// Tests for the discrete-event engine core: Schedule quantization and
// same-instant semantics, boundary skipping, wake ordering, and the
// event-driven node's accrual/deadline machinery.

// stepFor is RunFor visiting every boundary: the fixed-tick loop whose
// traces RunFor's event jumps must reproduce.
func stepFor(e *Engine, d time.Duration) {
	for n := (d + e.Tick() - 1) / e.Tick(); n > 0; n-- {
		e.Step()
	}
}

// stepUntil is RunUntil visiting every boundary.
func stepUntil(e *Engine, pred func() bool, max time.Duration) error {
	deadline := e.Now().Add(max)
	for !pred() {
		if e.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v (now %v)", max, e.Now())
		}
		e.Step()
	}
	return nil
}

// advances pairs the two ways of moving the clock the equivalence tests
// compare.
var advances = []struct {
	name   string
	runFor func(*Engine, time.Duration)
	until  func(*Engine, func() bool, time.Duration) error
}{
	{"step", stepFor, stepUntil},
	{"event", (*Engine).RunFor, (*Engine).RunUntil},
}

// TestScheduleCurrentInstantFiresNextBoundary pins the Schedule
// semantics documented on the method: a callback scheduled for the
// current instant — whether from outside the engine or during event
// dispatch — fires at the NEXT tick boundary, never in the same pass.
func TestScheduleCurrentInstantFiresNextBoundary(t *testing.T) {
	e := NewEngine(time.Second)
	epoch := e.Now()

	// From outside the engine.
	var outsideAt time.Time
	e.Schedule(0, func(now time.Time) { outsideAt = now })
	e.Step()
	if got := outsideAt.Sub(epoch); got != time.Second {
		t.Fatalf("Schedule(0) outside dispatch fired at +%v, want +1s", got)
	}

	// From within event dispatch: the inner callback must not run in the
	// same pass even though its deadline is the instant being processed.
	var innerAt time.Time
	e.Schedule(time.Second, func(now time.Time) {
		e.Schedule(0, func(inner time.Time) { innerAt = inner })
	})
	e.Step() // fires the outer at +2s; inner is scheduled for "now"
	if !innerAt.IsZero() {
		t.Fatal("callback scheduled for the current instant ran in the same pass")
	}
	e.Step()
	if got := innerAt.Sub(epoch); got != 3*time.Second {
		t.Fatalf("same-instant callback fired at +%v, want +3s (next boundary)", got)
	}
}

// TestScheduleQuantizesToGrid pins that sub-tick delays round up to the
// next boundary — the tick is the simulation's time resolution — while
// ordering among timers still follows the originally requested times.
func TestScheduleQuantizesToGrid(t *testing.T) {
	e := NewEngine(time.Second)
	var order []string
	// 1.7s requested after 1.2s: both land on the +2s boundary, and fire
	// in requested-time order even though both were quantized.
	e.Schedule(1700*time.Millisecond, func(time.Time) { order = append(order, "late") })
	e.Schedule(1200*time.Millisecond, func(time.Time) { order = append(order, "early") })
	e.RunFor(3 * time.Second)
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("quantized timer order = %v", order)
	}
}

// TestTimersAcrossOneJumpFireOnceAtTheirOwnDeadlines: the event queue is
// the one way to wait on simulated time, and RunFor moves the clock in
// jumps that cross many deadlines at once. Every timer crossed fires
// exactly once, sees the clock at its own deadline rather than at the
// jump's target, and fires in deadline order whatever order it was
// scheduled in; a timer not yet due has not fired.
func TestTimersAcrossOneJumpFireOnceAtTheirOwnDeadlines(t *testing.T) {
	e := NewEngine(time.Second)
	start := e.Now()
	delays := []time.Duration{7 * time.Second, 3 * time.Second, 3600 * time.Second, 59 * time.Second, 4 * time.Second}
	fired := make([][]time.Duration, len(delays))
	var order []int
	for i, d := range delays {
		e.Schedule(d, func(now time.Time) {
			fired[i] = append(fired[i], now.Sub(start))
			order = append(order, i)
		})
	}
	e.RunFor(time.Hour - time.Second)
	if fired[2] != nil {
		t.Fatalf("the timer due at +1h fired at %v, before the clock reached it", fired[2])
	}
	e.RunFor(time.Hour)
	for i, d := range delays {
		if len(fired[i]) != 1 || fired[i][0] != d {
			t.Errorf("timer %d (due +%v) fired at %v, want once at its own deadline", i, d, fired[i])
		}
	}
	if want := []int{1, 4, 0, 3, 2}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("timers fired in order %v, want deadline order %v", order, want)
	}
}

// TestTimerFiresAtItsDeadlineNotBefore: a timer has not fired one tick
// short of its deadline and has fired, seeing its deadline, once the clock
// reaches it.
func TestTimerFiresAtItsDeadlineNotBefore(t *testing.T) {
	e := NewEngine(time.Second)
	start := e.Now()
	var fired []time.Duration
	e.Schedule(10*time.Second, func(now time.Time) { fired = append(fired, now.Sub(start)) })
	e.RunFor(9 * time.Second)
	if fired != nil {
		t.Fatalf("timer due at +10s fired at %v, before its deadline", fired)
	}
	e.RunFor(time.Second)
	if len(fired) != 1 || fired[0] != 10*time.Second {
		t.Fatalf("timer due at +10s fired at %v, want once at +10s", fired)
	}
}

// TestTimerCrossedByJumpSeesItsOwnDeadline: a timer crossed by a jump far
// past it sees the clock at its own deadline, not at the jump's target,
// so a chain of timers measures the durations it asked for.
func TestTimerCrossedByJumpSeesItsOwnDeadline(t *testing.T) {
	e := NewEngine(time.Second)
	start := e.Now()
	var seen, chained time.Duration
	e.Schedule(10*time.Second, func(now time.Time) {
		seen = now.Sub(start)
		e.Schedule(5*time.Second, func(now time.Time) { chained = now.Sub(start) })
	})
	e.RunFor(time.Hour)
	if seen != 10*time.Second || chained != 15*time.Second {
		t.Fatalf("timers saw +%v and +%v, want their deadlines +10s and +15s", seen, chained)
	}
	if got := e.Now().Sub(start); got != time.Hour {
		t.Fatalf("clock at +%v after the jump, want +1h", got)
	}
}

// TestTimersFireInDeadlineOrder: timers scheduled out of deadline order
// and crossed one at a time fire in deadline order.
func TestTimersFireInDeadlineOrder(t *testing.T) {
	e := NewEngine(time.Second)
	var order []int
	for i, d := range []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second} {
		e.Schedule(d, func(time.Time) { order = append(order, i) })
	}
	for i := 0; i < 3; i++ {
		e.RunFor(10 * time.Second)
	}
	if want := []int{1, 2, 0}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("timers fired in order %v, want deadline order %v", order, want)
	}
}

// TestPollerFiresEachPeriod: a periodic component fires once per period,
// seeing the period's boundary, as the clock advances one period at a
// time.
func TestPollerFiresEachPeriod(t *testing.T) {
	e := NewEngine(time.Second)
	start := e.Now()
	var polls []time.Duration
	e.NewPoller(func() time.Duration { return 10 * time.Second }, func(now time.Time) {
		polls = append(polls, now.Sub(start))
	})
	for i := 1; i <= 3; i++ {
		e.RunFor(10 * time.Second)
		if len(polls) != i || polls[i-1] != time.Duration(i)*10*time.Second {
			t.Fatalf("after %d periods polls at %v, want one more at +%ds", i, polls, 10*i)
		}
	}
}

// TestPollerAcrossOneJumpFiresEveryPeriod: a periodic component registered
// with the engine sees each of its periods exactly once, on the period
// grid, whether the clock gets there a boundary at a time or in one jump.
func TestPollerAcrossOneJumpFiresEveryPeriod(t *testing.T) {
	for _, adv := range advances {
		e := NewEngine(time.Second)
		start := e.Now()
		var polls []time.Duration
		e.NewPoller(func() time.Duration { return 10 * time.Second }, func(now time.Time) {
			polls = append(polls, now.Sub(start))
		})
		adv.runFor(e, 30*time.Second)
		adv.runFor(e, 65*time.Second)
		want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second, 40 * time.Second,
			50 * time.Second, 60 * time.Second, 70 * time.Second, 80 * time.Second, 90 * time.Second}
		if fmt.Sprint(polls) != fmt.Sprint(want) {
			t.Errorf("%s: polls at %v, want %v", adv.name, polls, want)
		}
	}
}

// TestEventDriverSkipsIdleBoundaries: with only a far-future timer
// scheduled, RunFor visits one boundary instead of thousands, and the
// clock still lands exactly where stepping would put it.
func TestEventDriverSkipsIdleBoundaries(t *testing.T) {
	e := NewEngine(time.Second)
	fired := time.Time{}
	e.Schedule(10000*time.Second, func(now time.Time) { fired = now })
	e.RunFor(20000 * time.Second)
	if e.Ticks() != 1 {
		t.Fatalf("RunFor visited %d boundaries, want 1", e.Ticks())
	}
	if got := fired.Sub(NewEngine(time.Second).Now()); got != 10000*time.Second {
		t.Fatalf("timer fired at +%v, want +10000s", got)
	}
	if got := e.Now().Sub(fired); got != 10000*time.Second {
		t.Fatalf("RunFor ended %v after the timer, want 10000s", got)
	}
}

// TestWakeOncePerBoundary pins the Wake contract: repeated requests for
// the same instant coalesce, and a component fires at most once per
// boundary.
func TestWakeOncePerBoundary(t *testing.T) {
	e := NewEngine(time.Second)
	fires := 0
	var w *Wake
	w = e.Register(func(now time.Time) { fires++ })
	w.Request(e.Now())
	w.Request(e.Now())
	w.Request(e.Now().Add(500 * time.Millisecond))
	e.Step()
	if fires != 1 {
		t.Fatalf("coalesced requests fired %d times in one boundary, want 1", fires)
	}
	e.Step()
	if fires != 1 {
		t.Fatalf("wake re-fired without a new request (%d)", fires)
	}
}

// TestWakeRequestDuringOwnFiring pins the periodic-component idiom: a
// wake that re-requests itself from its own callback fires once per
// requested period.
func TestWakeRequestDuringOwnFiring(t *testing.T) {
	e := NewEngine(time.Second)
	var times []time.Duration
	epoch := e.Now()
	var w *Wake
	w = e.Register(func(now time.Time) {
		times = append(times, now.Sub(epoch))
		w.Request(now.Add(3 * time.Second))
	})
	w.Request(epoch.Add(2 * time.Second))
	e.RunFor(12 * time.Second)
	want := []time.Duration{2 * time.Second, 5 * time.Second, 8 * time.Second, 11 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("periodic wake fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("periodic wake fired at %v, want %v", times, want)
		}
	}
	if e.Ticks() != int64(len(want)) {
		t.Fatalf("RunFor visited %d boundaries for %d wakes", e.Ticks(), len(want))
	}
}

// TestAttachedNodeSchedulesDeadline: a constant-load node runs a task to
// completion as a single deadline event, at the exact boundary per-tick
// accrual completes it, with onDone firing there.
func TestAttachedNodeSchedulesDeadline(t *testing.T) {
	g := NewGrid(time.Second, 1)
	s := g.AddSite("s")
	n := s.AddNode(g.Engine, "n", 1, ConstantLoad(0.25))
	var doneAt time.Time
	task := NewTask(300, func(*Task) { doneAt = g.Engine.Now() })
	n.Place(task)
	g.Engine.RunFor(1000 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("task state = %v", task.State())
	}
	// 300 cpu-seconds at share 0.75: done after ceil(300/0.75) = 400 ticks.
	if got := doneAt.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)); got != 400*time.Second {
		t.Fatalf("completed at +%v, want +400s", got)
	}
	if g.Engine.Ticks() > 3 {
		t.Fatalf("constant-load completion visited %d boundaries, want ≤3", g.Engine.Ticks())
	}
	if got := task.WallClock(); got != 300*time.Second {
		t.Fatalf("wall clock = %v, want 300s", got)
	}
}

// TestAttachedNodeLazyReads: progress read mid-run must reflect the
// elapsed simulated time even though no engine event has touched the node
// since placement. Under 60% background load a 100 CPU-second job
// progresses at 0.4/s, and wall-clock shows 40s after 100s (Condor counts
// only actual execution time — the Figure 7 progress proxy).
func TestAttachedNodeLazyReads(t *testing.T) {
	g := NewGrid(time.Second, 1)
	s := g.AddSite("s")
	n := s.AddNode(g.Engine, "n", 1, ConstantLoad(0.6))
	task := NewTask(100, nil)
	n.Place(task)
	g.Engine.RunFor(100 * time.Second)
	if got := task.CPUSeconds(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("lazy cpu = %v, want 40", got)
	}
	if got := task.WallClock().Seconds(); math.Abs(got-40) > 1e-6 {
		t.Fatalf("lazy wall clock = %vs, want 40s", got)
	}
	if got := task.CPUSeconds(); math.Abs(got-40) > 1e-6 {
		t.Fatalf("lazy cpu = %v, want 40", got)
	}
}

// TestAttachedNodeVaryingLoadMatchesActorNode: under a stepped load the
// node re-derives its deadline segment by segment — and must reproduce
// the per-tick reference node's trajectory bit for bit.
func TestAttachedNodeVaryingLoadMatchesActorNode(t *testing.T) {
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	load := StepLoad(epoch, []time.Duration{30 * time.Second, 60 * time.Second}, []float64{0.1, 0.8, 0.4})
	p := newNodePair(time.Second, 1, load)
	p.do(func(s *nodeSide) { s.place(50) })
	for i := 0; i < 120; i++ {
		p.runFor(time.Second)
		if d := p.check(); d != "" {
			t.Fatalf("tick %d diverged: %s", i+1, d)
		}
	}
	if p.ev.tasks[0].State() != TaskDone {
		t.Fatalf("task did not complete under varying load: %v", p.ev.tasks[0].State())
	}
}

// TestAttachedNodeSuspendResumeMidFlight: suspension settles accrual,
// stops the clock for the task, and re-derives the completion deadline on
// resume.
func TestAttachedNodeSuspendResumeMidFlight(t *testing.T) {
	g := NewGrid(time.Second, 1)
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, IdleLoad())
	task := NewTask(100, nil)
	n.Place(task)
	g.Engine.RunFor(30 * time.Second)
	task.Suspend()
	if task.State() != TaskSuspended {
		t.Fatalf("state after suspend = %v", task.State())
	}
	if got := task.CPUSeconds(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("cpu at suspend = %v, want 30", got)
	}
	g.Engine.RunFor(50 * time.Second)
	if got := task.CPUSeconds(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("suspended task progressed to %v cpu-seconds", got)
	}
	task.Resume()
	g.Engine.RunFor(70 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("resumed task state = %v (cpu %v)", task.State(), task.CPUSeconds())
	}
	if got := task.WallClock(); got != 100*time.Second {
		t.Fatalf("wall clock = %v, want 100s", got)
	}
}

// TestAttachedNodeShareRecomputedOnPlacement: placing a second task
// mid-flight settles the first under the old share and halves both
// shares afterwards.
func TestAttachedNodeShareRecomputedOnPlacement(t *testing.T) {
	g := NewGrid(time.Second, 1)
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, IdleLoad())
	a := NewTask(100, nil)
	n.Place(a)
	g.Engine.RunFor(20 * time.Second)
	b := NewTask(100, nil)
	n.Place(b)
	g.Engine.RunFor(40 * time.Second)
	if got := a.CPUSeconds(); math.Abs(got-40) > 1e-9 { // 20 + 40×0.5
		t.Fatalf("first task cpu = %v, want 40", got)
	}
	if got := b.CPUSeconds(); math.Abs(got-20) > 1e-9 { // 40×0.5
		t.Fatalf("second task cpu = %v, want 20", got)
	}
}

// TestAttachedNodeRederivesAtLoadStep: a load that steps mid-flight (the
// Figure 7 "site develops significant CPU load" move) is settled under the
// old level up to the step and the completion deadline re-derived under
// the new one. The tick ending at the step is the new level's: 49 s of
// work at rate 1, then 51 s at rate 0.5.
func TestAttachedNodeRederivesAtLoadStep(t *testing.T) {
	g := NewGrid(time.Second, 1)
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	load := StepLoad(epoch, []time.Duration{50 * time.Second}, []float64{0, 0.5})
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, load)
	var doneAt time.Time
	task := NewTask(100, func(*Task) { doneAt = g.Engine.Now() })
	n.Place(task)
	g.Engine.RunFor(50 * time.Second)
	if got := task.CPUSeconds(); got != 49.5 {
		t.Fatalf("cpu at the step = %v, want 49.5", got)
	}
	g.Engine.RunFor(200 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("task state = %v", task.State())
	}
	if got := doneAt.Sub(epoch); got != 151*time.Second {
		t.Fatalf("completed at +%v, want +151s", got)
	}
}

// TestFullyLoadedNodeSchedulesNothing: a load of 1.0 means no progress is
// possible; the node must not busy-wake the engine. A node fully loaded
// for ever schedules nothing at all; one whose full load is relieved at a
// step wakes once, at the completion past the relief.
func TestFullyLoadedNodeSchedulesNothing(t *testing.T) {
	g := NewGrid(time.Second, 1)
	site := g.AddSite("s")
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	relief := StepLoad(epoch, []time.Duration{10000 * time.Second}, []float64{1, 0})
	stuck, relieved := NewTask(10, nil), NewTask(10, nil)
	site.AddNode(g.Engine, "stuck", 1, ConstantLoad(1.0)).Place(stuck)
	site.AddNode(g.Engine, "relieved", 1, relief).Place(relieved)
	g.Engine.RunFor(10000 * time.Second)
	if g.Engine.Ticks() != 0 {
		t.Fatalf("fully loaded nodes woke the engine %d times", g.Engine.Ticks())
	}
	if got := stuck.CPUSeconds(); got != 0 {
		t.Fatalf("task progressed to %v cpu-seconds under full load", got)
	}
	if got := relieved.CPUSeconds(); got != 1 { // the tick ending at the relief
		t.Fatalf("relieved task has %v cpu-seconds at the relief, want 1", got)
	}
	g.Engine.RunFor(20 * time.Second)
	if relieved.State() != TaskDone || stuck.State() != TaskRunning {
		t.Fatalf("after the relief: relieved task %v, stuck one %v", relieved.State(), stuck.State())
	}
	if g.Engine.Ticks() != 1 {
		t.Fatalf("the relieved node woke the engine %d times, want once at its completion", g.Engine.Ticks())
	}
}

// TestRunUntilEventDriverTimesOut: with nothing scheduled, RunUntil must
// still terminate with the timeout error rather than spinning.
func TestRunUntilEventDriverTimesOut(t *testing.T) {
	e := NewEngine(time.Second)
	if err := e.RunUntil(func() bool { return false }, 5*time.Second); err == nil {
		t.Fatal("RunUntil(never) did not time out with an empty queue")
	}
}

// TestDriverIndependentTransferCompletion: network transfers are engine
// timers; stepping and jumping must deliver them at the same instant.
func TestDriverIndependentTransferCompletion(t *testing.T) {
	for _, adv := range advances {
		g := NewGrid(time.Second, 1)
		g.AddSite("a")
		g.AddSite("b")
		g.Network.Connect("a", "b", Link{BandwidthMBps: 10, Latency: 100 * time.Millisecond})
		var doneAt time.Time
		if _, err := g.Network.StartTransfer("a", "b", 50, func(time.Duration) { doneAt = g.Engine.Now() }); err != nil {
			t.Fatal(err)
		}
		adv.runFor(g.Engine, 10*time.Second)
		// 5s + 100ms latency, quantized up to the 6s boundary.
		if got := doneAt.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)); got != 6*time.Second {
			t.Fatalf("%s: transfer completed at +%v, want +6s", adv.name, got)
		}
	}
}

func ExampleEngine_Schedule() {
	e := NewEngine(time.Second)
	e.Schedule(90*time.Second, func(now time.Time) {
		fmt.Println("fired after", now.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)))
	})
	// RunFor jumps straight to the timer's boundary.
	e.RunFor(10 * time.Minute)
	fmt.Println("boundaries visited:", e.Ticks())
	// Output:
	// fired after 1m30s
	// boundaries visited: 1
}

// TestRunUntilDriversAgreeOnOvershootEvent: a Step loop's last step
// overshoots the deadline by up to one tick and still fires events
// there; RunUntil must process that same overshoot boundary.
// Regression test for an equivalence break found in review.
func TestRunUntilDriversAgreeOnOvershootEvent(t *testing.T) {
	for _, adv := range advances {
		e := NewEngine(time.Second)
		flag := false
		e.Schedule(11*time.Second, func(time.Time) { flag = true })
		err := adv.until(e, func() bool { return flag }, 10*time.Second)
		if err != nil || !flag {
			t.Fatalf("%s: err=%v flag=%v, want event at the overshoot boundary to fire", adv.name, err, flag)
		}
		if got := e.Now().Sub(NewEngine(time.Second).Now()); got != 11*time.Second {
			t.Fatalf("%s: clock at +%v, want +11s", adv.name, got)
		}
	}
}

// TestRunUntilTimeoutLeavesClockOnGrid: a timeout with a fractional max
// must leave the clock on the tick grid (where a Step loop leaves it),
// not at deadline+tick off-grid — otherwise every subsequent event time
// lands a boundary late. Regression test from review.
func TestRunUntilTimeoutLeavesClockOnGrid(t *testing.T) {
	var ends [2]time.Time
	for i, adv := range advances {
		e := NewEngine(time.Second)
		if err := adv.until(e, func() bool { return false }, 2500*time.Millisecond); err == nil {
			t.Fatalf("%s: RunUntil(never) did not time out", adv.name)
		}
		ends[i] = e.Now()
		fired := time.Time{}
		e.Schedule(time.Second, func(now time.Time) { fired = now })
		e.RunFor(5 * time.Second)
		if fired.IsZero() {
			t.Fatalf("%s: post-timeout timer never fired", adv.name)
		}
		if i == 1 && !fired.Equal(ends[0].Add(time.Second)) {
			t.Fatalf("post-timeout timer at %v after RunUntil, want %v as after stepping", fired, ends[0].Add(time.Second))
		}
	}
	if !ends[0].Equal(ends[1]) {
		t.Fatalf("timeout left clock at %v (step) vs %v (event)", ends[0], ends[1])
	}
}

// TestPlaceUnobservedTellsObserverNothingItDid pins the observer
// contract: a task the observer placed itself (PlaceUnobserved) fires the
// observer neither when placed nor when it completes — onDone reports
// that — while everything other parties do to the node's tasks, and any
// removal, still notifies. The load's step at 12 s, under the foreign
// task, is no one's news: a reader finds it through LoadSegment.
func TestPlaceUnobservedTellsObserverNothingItDid(t *testing.T) {
	g := NewGrid(time.Second, 1)
	load := StepLoad(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC), []time.Duration{12 * time.Second}, []float64{0, 0.5})
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, load)
	fired := 0
	n.SetObserver(func() { fired++ })
	expect := func(want int, after string) {
		t.Helper()
		if fired != want {
			t.Fatalf("observer fired %d times after %s, want %d", fired, after, want)
		}
	}

	done := 0
	own := NewTask(5, func(*Task) { done++ })
	n.PlaceUnobserved(own)
	expect(0, "its own placement")
	g.Engine.RunFor(10 * time.Second)
	if done != 1 || own.State() != TaskDone {
		t.Fatalf("own task: onDone fired %d times, state %v", done, own.State())
	}
	expect(0, "its own task's completion")

	n.Place(NewTask(5, nil))
	expect(1, "a foreign placement")
	g.Engine.RunFor(10 * time.Second)
	expect(2, "a load step and a foreign completion")

	killed := NewTask(50, nil)
	n.PlaceUnobserved(killed)
	killed.Kill()
	n.Remove(killed)
	expect(3, "a removal")

	// Sharing a completion boundary with a foreign task does not hide it.
	fired = 0
	n.PlaceUnobserved(NewTask(4, nil))
	n.Place(NewTask(4, nil))
	expect(1, "the foreign half of a shared placement")
	g.Engine.RunFor(20 * time.Second)
	expect(2, "a completion boundary shared with a foreign task")
}
