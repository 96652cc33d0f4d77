package simgrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Tests for exact work accounting: the unit conversion, the arithmetic at
// its int64 edges, interval composition (n one-tick steps ≡ one n-tick
// step), and what a long task costs in Segment calls.

var epoch2005 = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)

// TestUnitsRoundTrip: every value a task can hold below 2⁵⁰ units (35
// CPU-years) survives the trip through the float a checkpoint stores, and
// the remaining work Restore computes as a float difference is the exact
// integer difference.
func TestUnitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	back := func(u int64) float64 { return float64(u) / unitsPerSecond }
	for i := 0; i < 200000; i++ {
		u := rng.Int63n(1 << uint(1+rng.Intn(50)))
		if u == 0 {
			continue // a task holds at least one unit
		}
		if got := toUnits(back(u)); got != u {
			t.Fatalf("toUnits(%d units as %v s) = %d", u, back(u), got)
		}
		if d := rng.Int63n(u + 1); d < u {
			if got := toUnits(back(u) - back(d)); got != u-d {
				t.Fatalf("need %d - done %d through floats = %d units, want %d", u, d, got, u-d)
			}
		}
	}
	for _, c := range []struct {
		sec  float64
		want int64
	}{{1e-9, 1}, {0.3, 300000}, {1e7, 1e13}, {1e300, maxUnits}, {math.Inf(1), maxUnits}} {
		if got := toUnits(c.sec); got != c.want {
			t.Errorf("toUnits(%v) = %d, want %d", c.sec, got, c.want)
		}
	}
}

// TestWorkArithmeticEdges drives ticksLeft and advance where rate × tick
// × n leaves int64: the products are 128-bit, and a count beyond int64 is
// "never", not an overflow.
func TestWorkArithmeticEdges(t *testing.T) {
	// A 10⁷-second task at Mips 1.5 under load 0.3 on a 10 ms tick:
	// 1 050 000 units/s × 10⁷ ns × 952 380 953 ticks ≈ 10²² > 2⁶³.
	w := work{need: toUnits(1e7)}
	step := perTick(0.3, 1.5, 1, 10*time.Millisecond)
	c := w.ticksLeft(step)
	if want := int64(952380953); c != want {
		t.Fatalf("ticksLeft = %d, want %d", c, want)
	}
	w.advance(step, c-1)
	if w.done >= w.need || w.ticksLeft(step) != 1 {
		t.Fatalf("one tick short of completion: done %d of %d, %d ticks left", w.done, w.need, w.ticksLeft(step))
	}
	w.advance(step, 1)
	if w.done < w.need {
		t.Fatalf("after the completing tick: done %d of %d", w.done, w.need)
	}

	huge := work{need: maxUnits}
	if got := huge.ticksLeft(1); got != never {
		t.Errorf("2⁶² units at 1e-9 units a tick: ticksLeft = %d, want never", got)
	}
	if got := huge.ticksLeft(0); got != never {
		t.Errorf("no progress: ticksLeft = %d, want never", got)
	}
	fast := perTick(0, 9000, 1, time.Second) // the largest step newNode admits at a 1 s tick
	if got := huge.ticksLeft(fast); got != (maxUnits+9_000_000_000-1)/9_000_000_000 {
		t.Errorf("2⁶² units at 9000 Mips: ticksLeft = %d", got)
	}
	huge.advance(fast, huge.ticksLeft(fast))
	if huge.done < huge.need || huge.done-huge.need >= 9_000_000_000 {
		t.Errorf("2⁶² units at 9000 Mips: done %d after the completing tick", huge.done)
	}

	// A deadline beyond what a time.Duration can hold is clamped, and the
	// node still settles exactly when it is looked at.
	g := NewGrid(time.Second, 1)
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, ConstantLoad(0.999999)) // one unit a second
	task := NewTask(4e12, nil)
	n.Place(task)
	g.Engine.RunFor(1000 * time.Second)
	if got := task.CPUSeconds(); got != 0.001 {
		t.Errorf("cpu after 1000 s at one unit a second = %v, want 0.001", got)
	}
}

// TestStepsEqualRun is interval composition: for random ticks, loads,
// speeds, sharing counts and lengths, n one-tick steps, one n-tick run and
// a run cut in two by a read all leave every task in the same state —
// accumulator remainder included.
func TestStepsEqualRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ticks := []time.Duration{time.Second, time.Second / 128, 10 * time.Millisecond, 7 * time.Millisecond, 333 * time.Microsecond}
	for trial := 0; trial < 300; trial++ {
		tick := ticks[rng.Intn(len(ticks))]
		mips := 0.5 + 2.5*rng.Float64()
		load := StepLoad(epoch2005, []time.Duration{time.Duration(1+rng.Intn(2000)) * tick}, []float64{rng.Float64(), 0.95 * rng.Float64()})
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3000)
		needs := make([]float64, m)
		for i := range needs {
			needs[i] = float64(1+rng.Intn(1500)) * tick.Seconds() * rng.Float64() * 3
		}
		cut := rng.Intn(n + 1)
		var sides [3][]*Task
		for s := range sides {
			g := NewGrid(tick, 1)
			node := g.AddSite("s").AddNode(g.Engine, "n", mips, load)
			for _, need := range needs {
				task := NewTask(math.Max(need, 1e-6), nil)
				node.Place(task)
				sides[s] = append(sides[s], task)
			}
			switch s {
			case 0:
				for i := 0; i < n; i++ {
					g.Engine.Step()
				}
			case 1:
				g.Engine.RunFor(time.Duration(n) * tick)
			case 2:
				g.Engine.RunFor(time.Duration(cut) * tick)
				sides[s][0].CPUSeconds()
				g.Engine.RunFor(time.Duration(n-cut) * tick)
			}
			for _, task := range sides[s] {
				task.observe()
			}
		}
		for i := range needs {
			a := sides[0][i]
			for s, b := range [2]*Task{sides[1][i], sides[2][i]} {
				if a.work != b.work || a.state != b.state {
					t.Fatalf("trial %d (tick %v, mips %v, m %d, n %d, cut %d) task %d: %d steps left %+v %v, run %d left %+v %v",
						trial, tick, mips, m, n, cut, i, n, a.work, a.state, s+1, b.work, b.state)
				}
			}
		}
	}
}

// countedLoad counts the Segment calls a load serves.
type countedLoad struct {
	Load
	calls *int
}

func (c countedLoad) Segment(t time.Time) (float64, time.Time) {
	*c.calls++
	return c.Load.Segment(t)
}

// TestSegmentCallsIndependentOfTick is the count gate on a read: placing a
// 10⁷-second task under a non-dyadic load, reading it a thousand times as
// time passes, suspending and resuming it costs a number of Segment calls
// that depends neither on the tick nor on how much time went by — one per
// settle that has time to cover, one per deadline derived.
func TestSegmentCallsIndependentOfTick(t *testing.T) {
	count := func(tick, between time.Duration) int {
		calls := 0
		g := NewGrid(tick, 1)
		n := g.AddSite("s").AddNode(g.Engine, "n", 1.5, countedLoad{ConstantLoad(0.3), &calls})
		task := NewTask(1e7, nil)
		n.Place(task)
		for i := 0; i < 1000; i++ {
			g.Engine.RunFor(between)
			task.CPUSeconds()
		}
		task.Suspend()
		g.Engine.RunFor(between)
		task.Resume()
		if want := 1.05 * 1000 * between.Seconds(); math.Abs(task.CPUSeconds()-want) > 1e-6 {
			t.Fatalf("tick %v: cpu %v after the reads, want %v", tick, task.CPUSeconds(), want)
		}
		return calls
	}
	base := count(time.Second, time.Second)
	t.Logf("%d Segment calls", base)
	if base > 1003 {
		t.Errorf("%d Segment calls for a placement, 1000 reads, a suspend and a resume; want one each", base)
	}
	for _, c := range []struct{ tick, between time.Duration }{
		{10 * time.Millisecond, time.Second},
		{10 * time.Millisecond, 5000 * time.Second},
		{time.Second / 128, 5000 * time.Second},
	} {
		if got := count(c.tick, c.between); got != base {
			t.Errorf("tick %v, %v between reads: %d Segment calls, %d at a 1 s tick and 1 s between reads", c.tick, c.between, got, base)
		}
	}
}

// TestAttachedNodeExactRegimeMatchesActorNode drives one workload through
// the per-tick reference node and an event-driven node, comparing accrual
// at every second, over a load that mixes dyadic segments with a
// non-dyadic one and a 2⁻⁷ s tick.
func TestAttachedNodeExactRegimeMatchesActorNode(t *testing.T) {
	load := StepLoad(epoch2005,
		[]time.Duration{40 * time.Second, 80 * time.Second, 120 * time.Second},
		[]float64{0, 0.5, 0.3, 0.75})
	p := newNodePair(time.Second/128, 2, load)
	p.do(func(s *nodeSide) { s.place(250) })
	for i := 0; i < 400; i++ {
		p.runFor(time.Second)
		if d := p.check(); d != "" {
			t.Fatalf("second %d diverged: %s", i+1, d)
		}
	}
	if tEv := p.ev.tasks[0]; tEv.State() != TaskDone {
		t.Fatalf("task did not complete: %v (cpu %v)", tEv.State(), tEv.CPUSeconds())
	}
}

// TestLongTaskSinglePredictionBeyondReplayCap: the completion boundary is
// a ceiling division whatever the load, so a 10⁷-second task under a
// non-dyadic load on a 10 ms tick — 952 380 953 boundaries, which the float
// engine replayed in capped chunks — completes with a handful of engine
// events.
func TestLongTaskSinglePredictionBeyondReplayCap(t *testing.T) {
	g := NewGrid(10*time.Millisecond, 1)
	n := g.AddSite("s").AddNode(g.Engine, "n", 1.5, ConstantLoad(0.3))
	var doneAt time.Time
	task := NewTask(1e7, func(*Task) { doneAt = g.Engine.Now() })
	n.Place(task)
	g.Engine.RunFor(9_600_000 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("task state = %v", task.State())
	}
	// 10⁷ / 1.05 = 9 523 809.523… s: the first 10 ms boundary at or past it.
	if got, want := doneAt.Sub(epoch2005), 952380953*10*time.Millisecond; got != want {
		t.Fatalf("completed at +%v, want +%v", got, want)
	}
	if g.Engine.Ticks() > 3 {
		t.Fatalf("long task visited %d boundaries, want ≤3", g.Engine.Ticks())
	}
	if got := task.CPUSeconds(); got != 1e7 {
		t.Fatalf("cpu = %v, want exactly 1e7", got)
	}
}

// TestSegPredictionAgreesWithSync fuzzes the deadline against the accrual:
// for random dyadic and non-dyadic configurations the boundary the node
// schedules must be exactly the boundary at which one-tick steps complete
// the task.
func TestSegPredictionAgreesWithSync(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ticks := []time.Duration{time.Second, time.Second / 2, time.Second / 128, 10 * time.Millisecond}
	loads := []float64{0, 0.5, 0.25, 0.3, 0.6, 0.875}
	for trial := 0; trial < 200; trial++ {
		tick := ticks[rng.Intn(len(ticks))]
		l1 := loads[rng.Intn(len(loads))]
		l2 := loads[rng.Intn(len(loads))]
		split := time.Duration(1+rng.Intn(50)) * time.Second
		load := StepLoad(epoch2005, []time.Duration{split}, []float64{l1, l2})
		mips := float64(1 + rng.Intn(2))
		need := float64(1+rng.Intn(100)) / 4

		g := NewGrid(tick, 1)
		n := g.AddSite("s").AddNode(g.Engine, "n", mips, load)
		var doneAt time.Time
		task := NewTask(need, func(*Task) { doneAt = g.Engine.Now() })
		n.Place(task)
		g.Engine.RunFor(4000 * time.Second)
		if task.State() != TaskDone {
			t.Fatalf("trial %d: task incomplete (tick=%v l1=%v l2=%v need=%v)", trial, tick, l1, l2, need)
		}
		// The ground truth, one step per boundary.
		w, bt := work{need: toUnits(need)}, epoch2005
		for w.done < w.need {
			bt = bt.Add(tick)
			v := l1
			if !bt.Before(epoch2005.Add(split)) {
				v = l2
			}
			w.advance(perTick(v, mips, 1, tick), 1)
		}
		if !doneAt.Equal(bt) {
			t.Fatalf("trial %d: completed at %v, reference says %v (tick=%v l1=%v l2=%v need=%v)",
				trial, doneAt, bt, tick, l1, l2, need)
		}
	}
}

// TestReadersLeaveCompletionsToTheNode reads every node's task at every
// boundary from a timer, which runs ahead of every component: the read
// lands after the engine marked the boundary and before the node's event,
// so the node is current only through the previous boundary. It must stop
// short of a completion due at this one, so that every completion is still
// found — and its onDone fired — by the node's own event.
func TestReadersLeaveCompletionsToTheNode(t *testing.T) {
	const nodes, perNode = 4, 5000
	g := NewGrid(time.Second, 1)
	site := g.AddSite("s")
	var current [nodes]*Task
	done := 0
	for i := range current {
		n := site.AddNode(g.Engine, fmt.Sprint("n", i), 1, ConstantLoad(0.3))
		left := perNode
		var next func(*Task)
		next = func(*Task) {
			done++
			if left--; left > 0 {
				current[i] = NewTask(0.7*float64(1+left%3), next) // one to three ticks
				n.Place(current[i])
			}
		}
		left++
		done--
		next(nil)
	}
	var read func(time.Time)
	read = func(time.Time) {
		for _, task := range current {
			if cpu := task.CPUSeconds(); cpu > task.Need {
				t.Errorf("read cpu %v of a task needing %v", cpu, task.Need)
			}
			task.WallClock()
		}
		g.Engine.Schedule(time.Second, read)
	}
	g.Engine.Schedule(0, read)
	g.Engine.RunFor(3 * perNode * time.Second)
	if done != nodes*perNode {
		t.Fatalf("%d completions reported, want %d", done, nodes*perNode)
	}
}

// levelLoad breaks the Load contract: its value is a variable changed
// behind the node's back, served a segment per tick.
type levelLoad struct {
	level *float64
	tick  time.Duration
}

func (l levelLoad) Segment(t time.Time) (float64, time.Time) { return *l.level, t.Add(l.tick) }

// TestImpureLoadCompletesLate: a load that breaks the Load contract makes
// the look-ahead miss. No observer completes the task in the node's place:
// the first read past the missed completion stops short of it and brings
// the node's event to the next boundary, where the task completes.
func TestImpureLoadCompletesLate(t *testing.T) {
	g := NewGrid(time.Second, 1)
	level := 0.9
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, levelLoad{&level, time.Second})
	var doneAt time.Duration
	task := NewTask(10, func(*Task) { doneAt = g.Engine.Now().Sub(epoch2005) })
	n.Place(task) // expected at +100 s; the look-ahead wakes the node at +64 s
	g.Engine.RunFor(10 * time.Second)
	if got := task.CPUSeconds(); got != 1 {
		t.Fatalf("cpu %v at +10 s under load 0.9, want 1", got)
	}
	level = 0 // the other 9 CPU-s by +19 s
	g.Engine.RunFor(20 * time.Second)
	if task.State() != TaskRunning {
		t.Fatalf("state %v at +30 s with nobody looking", task.State())
	}
	if got := task.CPUSeconds(); got != 9 {
		t.Fatalf("a read at +30 s saw cpu %v, want 9: one boundary short of the completion", got)
	}
	g.Engine.RunFor(5 * time.Second)
	if task.State() != TaskDone || doneAt != 31*time.Second {
		t.Fatalf("state %v, completion reported at +%v; want done at +31 s, the boundary after the read", task.State(), doneAt)
	}
}

// TestSegmentCallsUnderShortSegments is the count gate under a load of
// many segments, DiurnalLoad's one a minute: a settle looks at each
// segment it covers once and a deadline derivation at no more than
// maxSegments, so the whole sequence costs the same at every tick, and a
// placement, a suspend and a resume on a task weeks from completion cost
// at most maxSegments calls each on top of the segments gone by.
func TestSegmentCallsUnderShortSegments(t *testing.T) {
	count := func(tick time.Duration) (total int) {
		calls := 0
		g := NewGrid(tick, 1)
		n := g.AddSite("s").AddNode(g.Engine, "n", 1.5, countedLoad{DiurnalLoad(0.4, 0.3, 14), &calls})
		task := NewTask(1e7, nil)
		op := func(name string, elapsedSegments int, f func()) {
			before := calls
			f()
			if got := calls - before; got > elapsedSegments+maxSegments {
				t.Errorf("tick %v: %s cost %d Segment calls, want ≤ %d", tick, name, got, elapsedSegments+maxSegments)
			}
		}
		op("Place", 0, func() { n.Place(task) })
		for i := 0; i < 100; i++ {
			g.Engine.RunFor(90 * time.Second)
			op("a read", 2, func() { task.CPUSeconds() })
		}
		g.Engine.RunFor(3 * time.Hour)
		op("Suspend", 0, task.Suspend) // the node's own wakes have kept it within a segment of now
		g.Engine.RunFor(time.Hour)
		op("Resume", 0, task.Resume)
		return calls
	}
	base := count(time.Second)
	t.Logf("%d Segment calls", base)
	for _, tick := range []time.Duration{10 * time.Millisecond, time.Second / 128} {
		if got := count(tick); got != base {
			t.Errorf("tick %v: %d Segment calls, %d at a 1 s tick", tick, got, base)
		}
	}
}
