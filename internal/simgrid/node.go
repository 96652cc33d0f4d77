package simgrid

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// TaskState is the execution state of a task placed on a node.
type TaskState int

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

// Task is a unit of CPU work placed on a Node. Work is measured in
// CPU-seconds on a reference (Mips=1.0) processor. WallClock accumulates
// only while the task actually occupies the CPU — exactly Condor's
// "accumulated wall-clock time" that the paper uses as its job-progress
// proxy in Figure 7.
type Task struct {
	ID   string
	Need float64 // total CPU-seconds required on a Mips=1.0 node

	mu     sync.Mutex
	state  TaskState
	done   float64 // CPU-seconds completed
	wall   float64 // seconds the task was actually executing
	onDone func(*Task)
	node   *Node // node currently hosting the task, nil when detached
	// unobserved marks a task the node's observer placed itself (see
	// Node.PlaceUnobserved): its completion is reported through onDone
	// alone.
	unobserved bool
}

// NewTask creates a task requiring need CPU-seconds; onDone (optional)
// fires when the work completes.
func NewTask(id string, need float64, onDone func(*Task)) *Task {
	if need <= 0 {
		panic("simgrid: task needs positive work")
	}
	return &Task{ID: id, Need: need, onDone: onDone}
}

// nodeRef returns the hosting node, if any.
func (t *Task) nodeRef() *Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.node
}

// observe brings the task's accrued work up to date with simulated time:
// a node accrues work lazily — replayed from the last synchronization
// point whenever someone looks.
func (t *Task) observe() {
	if n := t.nodeRef(); n != nil {
		n.observeNow()
	}
}

// State returns the task state. State transitions happen eagerly (at
// engine events or API calls), so no lazy synchronization is needed.
func (t *Task) State() TaskState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Progress returns completed work as a fraction in [0, 1].
func (t *Task) Progress() float64 {
	t.observe()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.done / t.Need
	if p > 1 {
		p = 1
	}
	return p
}

// WallClock returns the accumulated execution time (Condor wall-clock).
func (t *Task) WallClock() time.Duration {
	t.observe()
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.wall * float64(time.Second))
}

// CPUSeconds returns the completed CPU-seconds.
func (t *Task) CPUSeconds() float64 {
	t.observe()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// setState flips the task state after synchronizing its node's accrual,
// then re-derives the node's completion deadlines. from lists the states
// the transition applies to.
func (t *Task) setState(to TaskState, from ...TaskState) {
	n := t.nodeRef()
	if n != nil {
		n.observeNow() // accrue through the present under the old state
	}
	t.mu.Lock()
	changed := false
	for _, f := range from {
		if t.state == f {
			t.state = to
			changed = true
			break
		}
	}
	t.mu.Unlock()
	if changed && n != nil {
		n.mu.Lock()
		n.rederiveLocked()
		n.mu.Unlock()
	}
}

// Suspend pauses execution; progress and wall-clock stop accruing.
func (t *Task) Suspend() { t.setState(TaskSuspended, TaskRunning) }

// Resume continues a suspended task.
func (t *Task) Resume() { t.setState(TaskRunning, TaskSuspended) }

// Kill terminates the task; it will never complete.
func (t *Task) Kill() { t.setState(TaskKilled, TaskRunning, TaskSuspended) }

// maxPredictTicks bounds a single deadline-prediction replay. Shares so
// small that completion lies beyond the cap re-derive again at the cap
// boundary, so pathological loads degrade to bounded chunks of work
// rather than unbounded loops.
const maxPredictTicks = 1 << 22

// Node is a single CPU execution slot within a site. Mips scales its speed
// relative to the reference processor; Load supplies the background
// (non-Grid) utilization. Multiple tasks on one node share the remaining
// capacity equally — Condor would normally run one job per slot, but the
// fair-share model also covers oversubscription experiments.
//
// A node is event-driven: running tasks accrue work lazily (the per-tick
// arithmetic is replayed, bit for bit, whenever state is observed or
// changed) and task completions are scheduled as engine events — the
// exact tick boundary is found analytically for loads that advertise
// the PiecewiseConstant contract (all loads this package constructs),
// while opaque function loads fall back to per-tick wakeups, since they
// must be sampled at every boundary.
type Node struct {
	Name string
	Site string
	Mips float64

	mu       sync.Mutex
	load     Load
	seg      PiecewiseConstant // piecewise view of load, nil when opaque
	tasks    []*Task
	eng      *Engine
	wake     *Wake
	lastSync time.Time // last boundary through which accrual has been applied
	observer func()    // fired (unlocked) after task-set or load changes
}

// newNode creates a node on engine e. A nil load means idle; mips<=0
// defaults to 1.
func newNode(e *Engine, name, site string, mips float64, load Load) *Node {
	if mips <= 0 {
		mips = 1
	}
	if load == nil {
		load = IdleLoad()
	}
	n := &Node{Name: name, Site: site, Mips: mips, load: load, seg: pieceOf(load), eng: e}
	n.lastSync = e.Now()
	n.wake = e.Register(n.onWake)
	return n
}

// SetLoad replaces the node's background load. Work accrued so far is
// settled under the old load first.
func (n *Node) SetLoad(load Load) {
	if load == nil {
		load = IdleLoad()
	}
	n.observeNow()
	n.mu.Lock()
	n.load = load
	n.seg = pieceOf(load)
	n.rederiveLocked()
	n.mu.Unlock()
	n.notifyObserver()
}

// SetObserver installs a callback fired — outside the node lock — after
// any change that can alter the node's scheduling picture: a task placed,
// completed or removed, or the load replaced. Pools subscribe here so a
// freed machine wakes the negotiator instead of the negotiator polling
// every tick. The observer's own placements (PlaceUnobserved) are the one
// exception: it is told nothing it did or arranged to hear itself. Only
// one observer is supported; nil clears it.
func (n *Node) SetObserver(fn func()) {
	n.mu.Lock()
	n.observer = fn
	n.mu.Unlock()
}

// notifyObserver fires the observer callback, if any, without holding
// the node lock (the observer typically takes its own locks).
func (n *Node) notifyObserver() {
	n.mu.Lock()
	fn := n.observer
	n.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// LoadAt reports the background load at time t.
func (n *Node) LoadAt(t time.Time) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return clamp01(n.load.LoadAt(t))
}

// LoadSegment reports the background load at t together with the end of
// the current constant segment (zero when the value holds forever), and
// whether the node's load advertises piecewise segments at all.
func (n *Node) LoadSegment(t time.Time) (value float64, until time.Time, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seg == nil {
		return clamp01(n.load.LoadAt(t)), time.Time{}, false
	}
	v, u := n.seg.Segment(t)
	return v, u, true
}

// Place starts a task on this node.
func (n *Node) Place(t *Task) {
	n.place(t, false)
	n.notifyObserver()
}

// PlaceUnobserved is Place for the node's observer itself: the caller
// knows what it just placed and hears of the completion through the
// task's onDone callback, so the observer is notified of neither — an
// echo of its own action would only make it look again at a picture it
// has just drawn. Removing the task, and everything other parties do to
// the node, still notifies.
func (n *Node) PlaceUnobserved(t *Task) {
	n.place(t, true)
}

func (n *Node) place(t *Task, unobserved bool) {
	n.observeNow() // settle existing tasks before the share changes
	t.mu.Lock()
	t.node = n
	t.unobserved = unobserved
	t.mu.Unlock()
	n.mu.Lock()
	n.tasks = append(n.tasks, t)
	n.rederiveLocked()
	n.mu.Unlock()
}

// Remove detaches a task (completed, killed, or migrating) from the node.
func (n *Node) Remove(t *Task) {
	n.observeNow()
	n.mu.Lock()
	removed := false
	for i, x := range n.tasks {
		if x == t {
			n.tasks = append(n.tasks[:i], n.tasks[i+1:]...)
			removed = true
			break
		}
	}
	if removed {
		n.rederiveLocked()
	}
	n.mu.Unlock()
	if removed {
		t.mu.Lock()
		if t.node == n {
			t.node = nil
		}
		t.mu.Unlock()
		n.notifyObserver()
	}
}

// TaskCount returns the number of tasks placed on the node without
// allocating — the negotiator's free-machine validation probe.
func (n *Node) TaskCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.tasks)
}

// Tasks returns a snapshot of the tasks currently placed on the node.
func (n *Node) Tasks() []*Task {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Task, len(n.tasks))
	copy(out, n.tasks)
	return out
}

// RunningCount returns the number of tasks in the running state.
func (n *Node) RunningCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, t := range n.tasks {
		if t.State() == TaskRunning {
			c++
		}
	}
	return c
}

// observeNow replays accrual up to the engine's consistency horizon for
// this node: mid-boundary, a node whose turn has not yet come reports
// work as of the previous boundary.
func (n *Node) observeNow() {
	h := n.eng.horizonFor(n.wake.order)
	n.mu.Lock()
	n.syncLocked(h, true)
	n.mu.Unlock()
}

// onWake is the node's engine event: settle accrual through now (firing
// completions due at this boundary), then schedule the next deadline.
func (n *Node) onWake(now time.Time) {
	n.mu.Lock()
	fin := n.syncLocked(now, false)
	n.rederiveLocked()
	n.mu.Unlock()
	notify := false
	for _, t := range fin {
		t.mu.Lock()
		cb := t.onDone
		notify = notify || !t.unobserved
		t.mu.Unlock()
		if cb != nil {
			cb(t)
		}
	}
	if notify {
		n.notifyObserver()
	}
}

// taskRun is a running task's accrual state copied out for replay.
type taskRun struct {
	t          *Task
	done, wall float64
}

// syncLocked replays the per-tick accrual arithmetic for every boundary
// in (lastSync, to] — computing, bit for bit, the floating-point sums of
// a node advanced at every boundary (the per-tick reference in
// node_oracle_test.go) — and returns the tasks that completed. In
// observe mode the replay stops just short of the first boundary at which
// a task would complete, leaving the completion (and its onDone callback)
// to the node's own deadline event.
func (n *Node) syncLocked(to time.Time, observe bool) []*Task {
	if !to.After(n.lastSync) {
		return nil
	}
	tick := n.eng.Tick()
	sec := tick.Seconds()
	var running []taskRun
	for _, t := range n.tasks {
		t.mu.Lock()
		if t.state == TaskRunning {
			running = append(running, taskRun{t: t, done: t.done, wall: t.wall})
		}
		t.mu.Unlock()
	}
	if len(running) == 0 {
		n.lastSync = to
		return nil
	}
	var finished []*Task
	end := to
	base := n.lastSync
	var segVal float64
	var segUntil time.Time
	segValid := false
	tryJump := n.seg != nil // retried after each segment or task-set change
loop:
	for bt := base.Add(tick); !bt.After(to); bt = bt.Add(tick) {
		if len(running) == 0 {
			break
		}
		var load float64
		if n.seg != nil {
			if !segValid || (!segUntil.IsZero() && !bt.Before(segUntil)) {
				segVal, segUntil = n.seg.Segment(bt)
				segValid = true
				tryJump = true
			}
			load = segVal
			if load >= 1 {
				if segUntil.IsZero() {
					break // full load forever: nothing ever accrues
				}
				// Zero-progress segment: jump to its last boundary so the
				// loop's Add(tick) lands on the first boundary past it.
				// Adding share=0 per boundary would be bit-identical but
				// cost one iteration per tick.
				k := int64((segUntil.Sub(base) + tick - 1) / tick)
				if nb := base.Add(time.Duration(k-1) * tick); nb.After(bt) {
					bt = nb
				}
				continue
			}
		} else {
			load = clamp01(n.load.LoadAt(bt))
		}
		m := float64(len(running))
		share := (1 - load) * n.Mips / m
		runFrac := (1 - load) / m
		if tryJump {
			// Bulk-apply every boundary of this segment that no task
			// completes at: when each per-tick step is an exact power of
			// two and each accumulator an exact multiple of it, the closed
			// form reproduces the repeated additions bit for bit. A failed
			// exactness check stays off until the segment or the running
			// set changes (alignment cannot spontaneously appear).
			w := int64(to.Sub(bt)/tick) + 1
			if !segUntil.IsZero() {
				if ws := int64((segUntil.Sub(bt)-1)/tick) + 1; ws < w {
					w = ws
				}
			}
			if jump := bulkTicks(running, sec*share, sec*runFrac, w); jump > 0 {
				for i := range running {
					running[i].done += float64(jump) * (sec * share)
					running[i].wall += float64(jump) * (sec * runFrac)
				}
				bt = bt.Add(time.Duration(jump-1) * tick)
				continue
			}
			tryJump = false
		}
		if observe {
			for i := range running {
				if running[i].done+sec*share >= running[i].t.Need {
					end = bt.Add(-tick)
					break loop
				}
			}
		}
		for i := 0; i < len(running); i++ {
			r := &running[i]
			r.done += sec * share
			r.wall += sec * runFrac
			if r.done >= r.t.Need {
				r.done = r.t.Need
				finished = append(finished, r.t)
				n.writeBackLocked(*r, true)
				running = append(running[:i], running[i+1:]...)
				i--
				tryJump = n.seg != nil // share changes with the task count
			}
		}
	}
	n.lastSync = end
	for _, r := range running {
		n.writeBackLocked(r, false)
	}
	for _, t := range finished {
		for i, x := range n.tasks {
			if x == t {
				n.tasks = append(n.tasks[:i], n.tasks[i+1:]...)
				break
			}
		}
	}
	return finished
}

// bulkTicks reports how many consecutive tick boundaries — at most window,
// all within one constant load segment — can be applied to the running set
// in closed form without changing a single floating-point result. The
// per-tick accrual x += step is exactly reproduced by x + n·step when step
// is a power of two, x is an exact multiple of it, and the scaled sums stay
// below 2⁵³: every partial sum is then representable, so the repeated
// additions never round. The jump stops just before the first boundary at
// which a task would complete, leaving completion bookkeeping to the
// regular per-tick body. Returns 0 when no exact jump is possible.
func bulkTicks(running []taskRun, stepD, stepW float64, window int64) int64 {
	if window <= 1 {
		return 0
	}
	if fr, _ := math.Frexp(stepD); fr != 0.5 {
		return 0
	}
	if fr, _ := math.Frexp(stepW); fr != 0.5 {
		return 0
	}
	const maxExact = float64(1 << 53)
	jump := window
	for i := range running {
		r := &running[i]
		d := r.done / stepD
		w := r.wall / stepW
		if d != math.Trunc(d) || w != math.Trunc(w) ||
			d+float64(window) >= maxExact || w+float64(window) >= maxExact {
			return 0
		}
		if r.done+float64(jump)*stepD < r.t.Need {
			continue // no completion inside the current jump
		}
		// Completes inside the window: find the exact first completing
		// boundary (the float seed is within an ulp; the adjustment loops
		// settle it against the exact products).
		c := int64(math.Ceil((r.t.Need - r.done) / stepD))
		if c < 1 {
			c = 1
		}
		for c > 1 && r.done+float64(c-1)*stepD >= r.t.Need {
			c--
		}
		for r.done+float64(c)*stepD < r.t.Need {
			c++
		}
		if c-1 < jump {
			jump = c - 1
		}
		if jump == 0 {
			return 0
		}
	}
	return jump
}

// writeBackLocked stores a replayed accrual state into its task,
// completing it when done.
func (n *Node) writeBackLocked(r taskRun, completed bool) {
	r.t.mu.Lock()
	r.t.done = r.done
	r.t.wall = r.wall
	if completed {
		r.t.state = TaskDone
		r.t.node = nil
	}
	r.t.mu.Unlock()
}

// rederiveLocked recomputes the node's next wake: for piecewise-constant
// loads, the exact tick boundary of the earliest completion, found by
// replaying the same floating-point sums the sync will perform segment by
// segment; for opaque function loads, the next boundary, since they must
// be sampled every tick. Idle nodes — and nodes pinned at full load
// forever — schedule nothing; this is what lets RunFor skip their
// boundaries entirely and keeps the event count independent of the tick
// resolution.
func (n *Node) rederiveLocked() {
	count := 0
	for _, t := range n.tasks {
		t.mu.Lock()
		if t.state == TaskRunning {
			count++
		}
		t.mu.Unlock()
	}
	if count == 0 {
		return
	}
	tick := n.eng.Tick()
	if n.seg == nil {
		n.wake.Request(n.lastSync.Add(tick))
		return
	}
	m := float64(count)
	best := int64(math.MaxInt64)
	scheduled := false
	for _, t := range n.tasks {
		t.mu.Lock()
		state, done, need := t.state, t.done, t.Need
		t.mu.Unlock()
		if state != TaskRunning {
			continue
		}
		lim := best
		if lim > maxPredictTicks {
			lim = maxPredictTicks // replay cap; the exact path may exceed it
		}
		k := n.segTicksToComplete(done, need, m, tick, lim)
		if k < 0 {
			continue // never completes under the remaining load profile
		}
		scheduled = true
		if k < best {
			best = k
		}
	}
	if !scheduled {
		return // no progress until the load or the task set changes
	}
	if maxK := int64(math.MaxInt64) / int64(tick); best > maxK {
		best = maxK // keep the duration multiply from overflowing
	}
	n.wake.Request(n.lastSync.Add(time.Duration(best) * tick))
}

// segTicksToComplete replays done += step across the load's constant
// segments until done ≥ need, returning the boundary count. The replay —
// rather than a division — guarantees the predicted boundary matches the
// accrual sum bit for bit: within each segment it mirrors syncLocked's
// expression order exactly (share first, then scaled by the tick), since
// any other float association can drift an ulp and predict a boundary the
// accrual replay doesn't complete at. Full-load segments are jumped over
// arithmetically, and segments in bulkTicks' exact power-of-two regime are
// solved in closed form — in that regime the result may exceed limit,
// since the cap only bounds replay work. Otherwise returns limit when
// completion lies at or beyond limit boundaries, and -1 when the task can
// never complete (full load forever).
func (n *Node) segTicksToComplete(done, need, m float64, tick time.Duration, limit int64) int64 {
	base := n.lastSync
	sec := tick.Seconds()
	var k int64
	for k < limit {
		bt := base.Add(time.Duration(k+1) * tick)
		v, until := n.seg.Segment(bt)
		kEnd := limit
		if !until.IsZero() {
			// Boundaries base+j·tick with j ≥ k+1 inside [bt, until).
			if ke := int64((until.Sub(base) - 1) / tick); ke < kEnd {
				kEnd = ke
			}
			if kEnd <= k {
				kEnd = k + 1 // defensive: a segment must cover its own start
			}
		}
		share := (1 - v) * n.Mips / m
		step := sec * share
		if step <= 0 {
			if until.IsZero() {
				return -1 // no progress, forever
			}
			k = kEnd
			continue
		}
		// Exact closed form (same regime as bulkTicks): a power-of-two
		// step over an aligned accumulator accrues without rounding, so
		// the completing boundary is the exact ceiling — no replay needed.
		if fr, _ := math.Frexp(step); fr == 0.5 {
			if d := done / step; d == math.Trunc(d) && d+float64(kEnd-k) < float64(1<<53) {
				if rem := float64(kEnd - k); done+rem*step < need {
					if until.IsZero() && kEnd == limit {
						// Unbounded final segment: the cap only bounds
						// replay work, of which the closed form does none —
						// return the true boundary so a long task wakes
						// once, at completion, instead of at every cap.
						c := int64(math.Ceil((need - done) / step))
						if c < 1 {
							c = 1
						}
						if d+float64(c)+1 < float64(1<<53) {
							for c > 1 && done+float64(c-1)*step >= need {
								c--
							}
							for done+float64(c)*step < need {
								c++
							}
							return k + c
						}
					}
					done += rem * step
					k = kEnd
					continue
				}
				c := int64(math.Ceil((need - done) / step))
				if c < 1 {
					c = 1
				}
				for c > 1 && done+float64(c-1)*step >= need {
					c--
				}
				for done+float64(c)*step < need {
					c++
				}
				return k + c
			}
		}
		for k < kEnd {
			done += step
			k++
			if done >= need {
				if k < 1 {
					k = 1
				}
				return k
			}
		}
	}
	return limit
}
