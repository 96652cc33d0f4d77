package simgrid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The per-tick reference node: CPU accrual one tick at a time, as nodes
// computed it before they became event-driven. It shares two things with
// Node (node.go) and nothing else: how a rate is quantised (perTick) and
// what one tick adds to an accumulator (work.advance with k = 1). Node
// settles whole load segments with one multiplication and finds completion
// boundaries by ceiling division; the differential tests hold it to this
// reference with exact comparison.

// tickNode is a node advanced at every boundary. Its tasks are plain
// *Task values that never learn of a hosting Node (Task.node stays nil),
// so their reads return exactly what advance wrote.
type tickNode struct {
	Mips float64

	load  Load
	tasks []*Task
}

// newTickNode creates a reference node that asks e for a wake at every
// boundary from the next one on.
func newTickNode(e *Engine, mips float64, load Load) *tickNode {
	n := &tickNode{Mips: mips, load: load}
	var w *Wake
	w = e.Register(func(now time.Time) {
		n.OnTick(now, e.tick)
		w.Request(now.Add(e.tick))
	})
	w.Request(e.Now().Add(e.tick))
	return n
}

func (n *tickNode) Place(t *Task) {
	t.mips = n.Mips
	n.tasks = append(n.tasks, t)
}

func (n *tickNode) Remove(t *Task) {
	for i, x := range n.tasks {
		if x == t {
			n.tasks = append(n.tasks[:i], n.tasks[i+1:]...)
			return
		}
	}
}

// OnTick advances every running task by one tick: the free capacity
// (1-load)×Mips, quantised and divided equally among running tasks.
func (n *tickNode) OnTick(now time.Time, dt time.Duration) {
	load, _ := n.load.Segment(now)
	running := make([]*Task, 0, len(n.tasks))
	for _, t := range n.tasks {
		if t.State() == TaskRunning {
			running = append(running, t)
		}
	}
	if len(running) == 0 {
		return
	}
	step := perTick(load, n.Mips, len(running), dt)
	var finished []*Task
	for _, t := range running {
		if t.tickOnce(step) {
			finished = append(finished, t)
		}
	}
	n.tasks = slices.DeleteFunc(n.tasks, func(t *Task) bool { return slices.Contains(finished, t) })
}

// tickOnce gives the task one tick's worth of work; it reports whether
// the task just completed.
func (t *Task) tickOnce(step uint64) bool {
	if t.state != TaskRunning {
		return false
	}
	t.advance(step, 1)
	completed := t.done >= t.need
	if completed {
		t.done, t.frac, t.state = t.need, 0, TaskDone
	}
	if completed && t.completer != nil {
		t.completer.Complete(t)
	}
	return completed
}

// nodeSide is one subject of a differential scenario — a production Node
// or the per-tick reference — on an engine of its own, with the tasks
// placed on it and the completion boundary each reported through its Completer
// (zero until then).
type nodeSide struct {
	e    *Engine
	node interface {
		Place(*Task)
		Remove(*Task)
	}
	tasks []*Task
	done  []time.Time
}

func (s *nodeSide) place(need float64) {
	i := len(s.tasks)
	s.done = append(s.done, time.Time{})
	s.tasks = append(s.tasks, NewTask(need, func(*Task) { s.done[i] = s.e.Now() }))
	s.node.Place(s.tasks[i])
}

// nodePair holds the two sides of a scenario; every operation goes to both.
type nodePair struct{ ev, ref *nodeSide }

func newNodePair(tick time.Duration, mips float64, load Load) nodePair {
	g := NewGrid(tick, 1)
	eRef := NewEngine(tick)
	return nodePair{
		ev:  &nodeSide{e: g.Engine, node: g.AddSite("s").AddNode(g.Engine, "n", mips, load)},
		ref: &nodeSide{e: eRef, node: newTickNode(eRef, mips, load)},
	}
}

// do applies op to both sides now, from outside the engines.
func (p nodePair) do(op func(*nodeSide)) {
	op(p.ev)
	op(p.ref)
}

// doAt applies op to both sides from a timer at the first boundary at or
// after delay — inside dispatch, ahead of the node's own turn there.
func (p nodePair) doAt(delay time.Duration, op func(*nodeSide)) {
	p.do(func(s *nodeSide) { s.e.Schedule(delay, func(time.Time) { op(s) }) })
}

func (p nodePair) runFor(d time.Duration) {
	p.do(func(s *nodeSide) { s.e.RunFor(d) })
}

// check requires every task's accrual, state and completion boundary to
// be equal on both sides, returning a description of the first
// difference.
func (p nodePair) check() string {
	for i, ev := range p.ev.tasks {
		ref := p.ref.tasks[i]
		if ev.CPUSeconds() != ref.CPUSeconds() || ev.WallClock() != ref.WallClock() ||
			ev.State() != ref.State() || !p.ev.done[i].Equal(p.ref.done[i]) {
			return fmt.Sprintf("task %d: node(cpu=%v wall=%v %v done=%v) vs oracle(cpu=%v wall=%v %v done=%v)",
				i, ev.CPUSeconds(), ev.WallClock(), ev.State(), p.ev.done[i],
				ref.CPUSeconds(), ref.WallClock(), ref.State(), p.ref.done[i])
		}
	}
	return ""
}

// oracleLoad draws a StepLoad whose segments, 3 to 42 s long, step on
// whole seconds until the horizon, mixing dyadic levels, non-dyadic ones
// (whose per-tick work leaves a remainder) and full load (no progress);
// the last level always leaves capacity, so tasks can finish.
func oracleLoad(rng *rand.Rand, epoch time.Time, horizon time.Duration) Load {
	levels := []float64{0, 0.5, 0.25, 0.75, 0.875, 0.3, 0.1, 0.6, 0.45, 1, 1}
	var bounds []time.Duration
	var vals []float64
	for at := time.Duration(3+rng.Intn(40)) * time.Second; at < horizon; at += time.Duration(3+rng.Intn(40)) * time.Second {
		bounds = append(bounds, at)
		vals = append(vals, levels[rng.Intn(len(levels))])
	}
	vals = append(vals, levels[rng.Intn(len(levels)-2)])
	return StepLoad(epoch, bounds, vals)
}

// runNodeOracleScenario plays one seeded scenario on a production node
// and the per-tick reference, comparing them after every simulated
// second; it returns the first divergence, or "". The load's timeline is
// drawn first, for the whole horizon; operations on the tasks land on
// whole seconds, from outside the engines or from a timer at the next
// second's boundary, where the node's turn is still ahead.
func runNodeOracleScenario(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := []time.Duration{time.Second, time.Second / 128, 10 * time.Millisecond}[rng.Intn(3)]
	mips := []float64{1, 1.5, 2}[rng.Intn(3)]
	need := func() float64 { return float64(4+rng.Intn(120)) / 4 }

	const horizon = 100
	p := newNodePair(tick, mips, oracleLoad(rng, epoch, horizon*time.Second))
	placed := 1 + rng.Intn(3)
	for i := 0; i < placed; i++ {
		n := need()
		p.do(func(s *nodeSide) { s.place(n) })
	}
	for sec := 1; sec <= horizon; sec++ {
		p.runFor(time.Second)
		if rng.Intn(8) == 0 {
			var op func(*nodeSide)
			i := rng.Intn(placed)
			switch rng.Intn(5) {
			case 0:
				if placed < 4 {
					placed++
					n := need()
					op = func(s *nodeSide) { s.place(n) }
				}
			case 1:
				op = func(s *nodeSide) { s.tasks[i].Suspend() }
			case 2:
				op = func(s *nodeSide) { s.tasks[i].Resume() }
			case 3:
				op = func(s *nodeSide) { s.tasks[i].Kill() }
			case 4:
				op = func(s *nodeSide) { s.node.Remove(s.tasks[i]) }
			}
			switch {
			case op == nil:
			case rng.Intn(2) == 0:
				p.do(op)
			default:
				p.doAt(time.Second, op)
			}
		}
		if d := p.check(); d != "" {
			return fmt.Sprintf("seed %d (tick %v, mips %v) second %d: %s", seed, tick, mips, sec, d)
		}
	}
	return ""
}

// TestNodeMatchesTickOracle is the seeded differential between the
// event-driven node and the per-tick reference: ticks of 1 s, 2⁻⁷ s and
// 10 ms, Mips 1, 1.5 and 2, stepped loads with and without per-tick
// remainders stepping every 3 to 42 s over the whole run, one to four
// tasks sharing the node, and whole-second placements, suspensions,
// resumptions, kills and removals.
func TestNodeMatchesTickOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if d := runNodeOracleScenario(seed); d != "" {
			t.Error(d)
		}
	}
}
