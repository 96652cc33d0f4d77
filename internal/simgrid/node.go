package simgrid

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// TaskState is the execution state of a task placed on a node.
type TaskState uint8

// Task states.
const (
	TaskRunning TaskState = iota
	TaskSuspended
	TaskDone
	TaskKilled
)

func (s TaskState) String() string {
	switch s {
	case TaskRunning:
		return "running"
	case TaskSuspended:
		return "suspended"
	case TaskDone:
		return "done"
	case TaskKilled:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Work is counted in whole units of a micro-CPU-second, and a rate in
// units per second of simulated time. A tick of tickNs nanoseconds at rate
// r is worth r·tickNs/fracDenom units; the division's remainder stays in
// the accumulator, so n one-tick steps and one n-tick step reach the same
// state whatever the tick, load, Mips and sharing count, and a completion
// boundary is a ceiling division.
const (
	unitsPerSecond = 1_000_000
	fracDenom      = uint64(time.Second) // a rate is per second, a tick is in nanoseconds
	maxUnits       = 1 << 62             // keeps (need-done)·fracDenom + one tick inside Div64's range
	never          = math.MaxInt64       // a tick count or boundary that is not reached
)

// toUnits converts CPU-seconds to work units, rounding to the nearest (at
// least one, so no task is born complete). float64(u)/unitsPerSecond
// converts back, and the round trip is exact for every u < 2⁵⁰ (35
// CPU-years; the two float roundings stay under half a unit): a checkpoint
// loses only the accumulator's sub-unit remainder.
func toUnits(sec float64) int64 {
	u := math.Round(sec * unitsPerSecond)
	return int64(min(max(u, 1), maxUnits))
}

// work is a task's exact accrual state: done + frac/fracDenom units of the
// need units it requires, 0 ≤ frac < fracDenom.
type work struct{ need, done, frac int64 }

// ticksLeft returns after how many ticks, each worth perTick/fracDenom
// units, the work completes: ⌈((need-done)·fracDenom - frac) / perTick⌉, at
// least 1 for incomplete work, never when there is no progress or the
// count is beyond int64.
func (w work) ticksLeft(perTick uint64) int64 {
	if perTick == 0 {
		return never
	}
	hi, lo := bits.Mul64(uint64(w.need-w.done), fracDenom)
	lo, borrow := bits.Sub64(lo, uint64(w.frac), 0)
	lo, carry := bits.Add64(lo, perTick-1, 0)
	if hi = hi - borrow + carry; hi >= perTick {
		return never
	}
	q, _ := bits.Div64(hi, lo, perTick)
	return int64(min(q, never))
}

// advance accrues k ticks' worth, k ≤ ticksLeft(perTick).
func (w *work) advance(perTick uint64, k int64) {
	hi, lo := bits.Mul64(perTick, uint64(k))
	lo, carry := bits.Add64(lo, uint64(w.frac), 0)
	q, r := bits.Div64(hi+carry, lo, fracDenom)
	w.done += int64(q)
	w.frac = int64(r)
}

// less orders accrual states by work left: a.less(b) means a completes
// first under any schedule that gives both the same rate.
func (w work) less(o work) bool {
	lw, lo := w.need-w.done, o.need-o.done
	return lw < lo || lw == lo && w.frac > o.frac
}

// Task is a unit of CPU work placed on a Node. Work is measured in
// CPU-seconds on a reference (Mips=1.0) processor and accrued exactly, in
// integer units (see toUnits). WallClock is the time the task actually
// occupied the CPU — its work divided by the node's speed — exactly
// Condor's "accumulated wall-clock time" that the paper uses as its
// job-progress proxy in Figure 7. A running job holds one, so it carries no
// name: 72 bytes, an 80-byte allocation.
type Task struct {
	Need float64 // total CPU-seconds required on a Mips=1.0 node

	state TaskState
	// unobserved marks a task the node's observer placed itself (see
	// Node.PlaceUnobserved): its completion is reported through its
	// Completer alone.
	unobserved bool
	work
	mips      float64   // speed of the node hosting (or that last hosted) the task
	completer Completer // told when the work completes; nil for nobody
	node      *Node     // node currently hosting the task, nil when detached
}

// Completer is told that a task's work completed. The node's engine
// event calls Complete at the boundary the work ran out: the execution service's machine is one, and hears of its own
// task's end without a closure per task or per machine.
type Completer interface {
	Complete(t *Task)
}

// completeFunc is a function as a Completer.
type completeFunc func(*Task)

func (f completeFunc) Complete(t *Task) { f(t) }

// NewTask creates a task requiring need CPU-seconds; onDone (optional)
// fires when the work completes. It is NewTaskFor with the function as
// the Completer.
func NewTask(need float64, onDone func(*Task)) *Task {
	var c Completer
	if onDone != nil {
		c = completeFunc(onDone)
	}
	return NewTaskFor(need, c)
}

// NewTaskFor creates a task requiring need CPU-seconds whose completion
// c (optional) is told of.
func NewTaskFor(need float64, c Completer) *Task {
	if need <= 0 {
		panic("simgrid: task needs positive work")
	}
	return &Task{Need: need, work: work{need: toUnits(need)}, mips: 1, completer: c}
}

// observe brings the task's accrued work up to date with simulated time:
// a node accrues work lazily, settling in closed form whenever someone
// looks.
func (t *Task) observe() {
	if n := t.node; n != nil {
		n.settleObserved()
	}
}

// State returns the task state. State transitions happen eagerly (at
// engine events or API calls), so no lazy synchronization is needed.
func (t *Task) State() TaskState {
	return t.state
}

// WallClock returns the accumulated execution time (Condor wall-clock),
// to the microsecond.
func (t *Task) WallClock() time.Duration {
	t.observe()
	return time.Duration(float64(t.done)/t.mips) * (time.Second / unitsPerSecond)
}

// CPUSeconds returns the completed CPU-seconds: Need itself once the task
// is done, whole work units before.
func (t *Task) CPUSeconds() float64 {
	t.observe()
	if t.state == TaskDone {
		return t.Need
	}
	return float64(t.done) / unitsPerSecond
}

// setState flips the task state after settling its node's accrual under
// the old one, then re-derives the node's completion deadline. from lists
// the states the transition applies to.
func (t *Task) setState(to TaskState, from ...TaskState) {
	n := t.node
	if n == nil {
		t.flip(to, from)
		return
	}
	n.settleObserved()
	if t.flip(to, from) {
		n.rearm()
	}
}

// flip moves the task to state to if it is in one of from.
func (t *Task) flip(to TaskState, from []TaskState) bool {
	if !slices.Contains(from, t.state) {
		return false
	}
	t.state = to
	return true
}

// Suspend pauses execution; progress and wall-clock stop accruing.
func (t *Task) Suspend() { t.setState(TaskSuspended, TaskRunning) }

// Resume continues a suspended task.
func (t *Task) Resume() { t.setState(TaskRunning, TaskSuspended) }

// Kill terminates the task; it will never complete.
func (t *Task) Kill() { t.setState(TaskKilled, TaskRunning, TaskSuspended) }

// maxSegments bounds how many load segments one deadline derivation looks
// ahead, and so what a placement, suspend, resume or removal
// costs: at most maxSegments Segment calls. A completion further off wakes
// the node at the last segment looked at, where it derives again, so an
// undisturbed task under a load of many short segments (NoisyLoad's last a
// second) pays one extra engine event per maxSegments segments
// and looks at each segment once whatever the bound. At 64 resuming a task
// weeks from completion takes 5 µs under DiurnalLoad and 0.9 ms under
// NoisyLoad (which seeds a generator per sample), 0.5 ms and 49 ms at 4096,
// for one event in 64 minutes of DiurnalLoad.
const maxSegments = 64

// Node is a single CPU execution slot within a site. Mips scales its speed
// relative to the reference processor; the load supplies the background
// (non-Grid) utilization. Multiple tasks on one node share the remaining
// capacity equally — Condor would normally run one job per slot, but the
// fair-share model also covers oversubscription experiments.
//
// A node is event-driven: the free capacity (1-load)·Mips is quantised to
// whole work units per second and divided among the running tasks where
// the load segment or the occupancy changes, never per tick; accrual is
// settled lazily, one multiplication per task per load segment, whenever
// state is observed or changed; and the earliest completion is scheduled
// as one engine event at the boundary a ceiling division finds.
//
// What a completion reads leads the struct: the engine's slot (held by
// value, the node being its own component), synced and the task list
// share the node's first cache lines.
type Node struct {
	wake   Wake
	synced int64 // tick index of the boundary through which accrual has been applied
	tasks  []*Task

	Name string
	Site string
	Mips float64

	seg      Load // the background load, fixed for the node's life
	eng      *Engine
	observer func()  // fired after task-set changes
	finished []*Task // what the last wake completed: settle's reused buffer
}

// newNode creates a node on engine e. A nil load means idle; mips<=0
// defaults to 1.
func newNode(e *Engine, name, site string, mips float64, load Load) *Node {
	if mips <= 0 {
		mips = 1
	}
	if mips*unitsPerSecond*float64(e.tick) >= 1<<63 {
		panic("simgrid: Mips × tick too large for exact work accounting")
	}
	if load == nil {
		load = IdleLoad()
	}
	n := &Node{Name: name, Site: site, Mips: mips, seg: load, eng: e}
	n.synced = e.nowTick
	e.register(&n.wake, n)
	return n
}

// SetObserver installs a callback fired after a change to the node's task
// set that can alter its scheduling picture: a task placed, completed or
// removed. Pools subscribe here so a freed machine wakes the negotiator
// instead of the negotiator polling every tick. The observer's own
// placements (PlaceUnobserved) are the one exception: it is told nothing
// it did or arranged to hear itself. The load is fixed when the node is
// made, so its changes are the ends of its segments, which a reader finds
// through LoadSegment and not through the observer. Only one observer is
// supported; nil clears it.
func (n *Node) SetObserver(fn func()) { n.observer = fn }

// notifyObserver fires the observer callback, if any.
func (n *Node) notifyObserver() {
	if n.observer != nil {
		n.observer()
	}
}

// LoadAt reports the background load at time t.
func (n *Node) LoadAt(t time.Time) float64 {
	v, _ := n.LoadSegment(t)
	return v
}

// LoadSegment reports the background load at t together with the end of
// the current constant segment: zero when the value holds forever.
func (n *Node) LoadSegment(t time.Time) (value float64, until time.Time) {
	return n.seg.Segment(t)
}

// Place starts a task on this node.
func (n *Node) Place(t *Task) {
	n.place(t, false)
	n.notifyObserver()
}

// PlaceUnobserved is Place for the node's observer itself: the caller
// knows what it just placed and hears of the completion through the
// task's Completer, so the observer is notified of neither — an
// echo of its own action would only make it look again at a picture it
// has just drawn. Removing the task, and everything other parties do to
// the node, still notifies.
func (n *Node) PlaceUnobserved(t *Task) {
	n.place(t, true)
}

func (n *Node) place(t *Task, unobserved bool) {
	n.settleObserved() // existing tasks first, before the share changes
	t.node, t.mips, t.unobserved = n, n.Mips, unobserved
	n.tasks = append(n.tasks, t)
	n.rearm()
}

// Remove detaches a task (completed, killed, or migrating) from the node.
func (n *Node) Remove(t *Task) {
	n.settleObserved()
	i := slices.Index(n.tasks, t)
	if i < 0 {
		return
	}
	n.tasks = slices.Delete(n.tasks, i, i+1)
	n.rearm()
	if t.node == n {
		t.node = nil
	}
	n.notifyObserver()
}

// TaskCount returns the number of tasks placed on the node without
// allocating — the negotiator's free-machine validation probe.
func (n *Node) TaskCount() int {
	return len(n.tasks)
}

// RunningCount returns the number of tasks in the running state.
func (n *Node) RunningCount() int {
	c := 0
	for _, t := range n.tasks {
		if t.State() == TaskRunning {
			c++
		}
	}
	return c
}

// settleObserved is settle for everyone but the node's own
// event: up to the engine's consistency horizon for this node (mid-boundary,
// a node whose turn has not yet come reports work as of the previous
// boundary) and never through a completion, which is the node's event's to
// find and tell the task's Completer of. None is normally in reach: the
// node's wake is requested for the exact completion boundary and fires
// before any later-ordered component can look at it. One is when a load
// that broke the Load contract made the look-ahead miss; the settle then
// stops a boundary short and the re-arm brings the node's event to the
// next legal boundary.
func (n *Node) settleObserved() {
	to := n.eng.horizonFor(n.wake.order)
	if n.settle(to, false); n.synced < to {
		n.rearm()
	}
}

// onWake is the node's engine event: settle accrual through now (firing
// completions due at this boundary), then schedule the next deadline.
func (n *Node) onWake(time.Time) {
	fin := n.settle(n.eng.horizonFor(n.wake.order), true)
	n.rearm()
	notify := false
	for _, t := range fin {
		notify = notify || !t.unobserved
		if t.completer != nil {
			t.completer.Complete(t)
		}
	}
	clear(fin) // the buffer is the node's, reused by its next wake
	if notify {
		n.notifyObserver()
	}
}

// perTick is what one tick is worth to each of m tasks sharing a node of
// speed mips under background load v, in 1/fracDenom work units: the free
// capacity quantised to whole units per second, split m ways.
func perTick(v, mips float64, m int, tick time.Duration) uint64 {
	rate := uint64(math.Round((1 - v) * mips * unitsPerSecond))
	return rate / uint64(m) * uint64(tick)
}

// perTickAt returns what one tick is worth to each of m running tasks
// in the load segment holding boundary k, and the last boundary of that
// segment (never, when it has no end).
func (n *Node) perTickAt(k int64, m int) (step uint64, last int64) {
	v, until := n.seg.Segment(n.eng.timeOf(k))
	last = never
	if !until.IsZero() {
		last = max(k, n.eng.tickCeil(until)-1) // a segment covers at least its own start
	}
	return perTick(v, n.Mips, m, n.eng.tick), last
}

// RateSegment reports what each running task accrues, in CPU-seconds per
// second of simulated time, in the load segment holding t, and when that
// segment ends (zero: never). It is the float reading of the rule
// perTickAt quantises: the free capacity (1-load)·Mips, shared equally
// among the running tasks — a suspended neighbour takes nothing. With
// nothing running it is what a sole task would get.
func (n *Node) RateSegment(t time.Time) (perTask float64, until time.Time) {
	v, until := n.seg.Segment(t)
	perTask = (1 - v) * n.Mips
	if m, _ := n.leastLeft(); m > 1 {
		perTask /= float64(m)
	}
	return perTask, until
}

// leastLeft counts the running tasks and copies out the accrual
// state of the one with the least work left. Running tasks share the node
// equally, so whatever the load does they all accrue the same work: that
// one completes first.
func (n *Node) leastLeft() (m int, least work) {
	for _, t := range n.tasks {
		if t.state == TaskRunning {
			if m++; m == 1 || t.work.less(least) {
				least = t.work
			}
		}
	}
	return m, least
}

// settle applies the accrual of every boundary in (synced, to] and
// returns the tasks that completed, removed from the node. It steps from
// one change of rate to the next — the end of a load segment, or a
// completion, which changes the sharing count — never over ticks. With
// complete unset it stops at the boundary before the first completion,
// leaving synced short of to. The completed tasks are listed in the node's
// own buffer, which only its wake (complete set) writes.
func (n *Node) settle(to int64, complete bool) (finished []*Task) {
	if complete {
		finished = n.finished[:0]
	}
	for n.synced < to {
		m, least := n.leastLeft()
		if m == 0 {
			n.synced = to
			break
		}
		step, last := n.perTickAt(n.synced+1, m)
		left := least.ticksLeft(step)
		if !complete {
			left--
		}
		k := min(min(last, to)-n.synced, left)
		if k == 0 {
			break
		}
		n.synced += k
		for _, t := range n.tasks {
			if t.state == TaskRunning {
				if t.advance(step, k); t.done >= t.need {
					t.done, t.frac, t.state, t.node = t.need, 0, TaskDone, nil
					finished = append(finished, t)
				}
			}
		}
		if len(finished) > 0 {
			n.tasks = slices.DeleteFunc(n.tasks, func(t *Task) bool { return slices.Contains(finished, t) })
		}
	}
	if complete {
		n.finished = finished[:0]
	}
	return finished
}

// ticksToComplete returns how many boundaries past synced the first
// running task completes, walking the load segments ahead: ok is false
// when nothing runs or nothing can ever complete (full load for ever). A
// completion more than maxSegments segments off is reported at the last
// one looked at.
func (n *Node) ticksToComplete() (ticks int64, ok bool) {
	m, least := n.leastLeft()
	if m == 0 {
		return 0, false
	}
	k := n.synced
	for i := 0; i < maxSegments; i++ {
		step, last := n.perTickAt(k+1, m)
		if c := least.ticksLeft(step); c != never && c <= last-k {
			return k - n.synced + c, true
		}
		if last == never {
			return 0, false
		}
		least.advance(step, last-k)
		k = last
	}
	return k - n.synced, true
}

// rearm requests the node's next wake at the earliest completion.
// Idle nodes — and nodes pinned at full load for ever — schedule nothing;
// this is what lets RunFor skip their boundaries entirely and keeps the
// event count independent of the tick resolution.
func (n *Node) rearm() {
	if k, ok := n.ticksToComplete(); ok {
		k = min(k, math.MaxInt64/int64(n.eng.tick)-n.synced) // keep the duration multiply from overflowing
		n.wake.Request(n.eng.timeOf(n.synced + k))
	}
}
