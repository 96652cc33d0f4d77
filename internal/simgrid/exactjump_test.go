package simgrid

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Tests for the exact closed-form accrual jump: when the per-tick step is
// a power of two and every accumulator an exact multiple of it, bulkTicks
// and segTicksToComplete replace the tick-by-tick replay with arithmetic
// that must reproduce the replayed sums bit for bit.

// TestBulkTicksMatchesReplay cross-checks bulkTicks against a literal
// per-tick replay over randomized regimes — exact power-of-two steps,
// misaligned accumulators, and non-dyadic steps alike.
func TestBulkTicksMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	steps := []float64{1.0, 0.5, 0.25, 2.0, 1.0 / 128, 0.75, 0.3, 0.1}
	for trial := 0; trial < 2000; trial++ {
		stepD := steps[rng.Intn(len(steps))]
		stepW := steps[rng.Intn(len(steps))]
		window := int64(2 + rng.Intn(5000))
		var running []taskRun
		for i := 0; i < 1+rng.Intn(3); i++ {
			need := float64(1 + rng.Intn(4000))
			done := 0.0
			if rng.Intn(2) == 0 {
				done = float64(rng.Intn(int(need))) * stepD // aligned
			}
			if rng.Intn(4) == 0 {
				done += 0.3 // deliberately misaligned
			}
			running = append(running, taskRun{t: &Task{ID: "x", Need: need}, done: done, wall: 0})
		}
		jump := bulkTicks(running, stepD, stepW, window)
		if jump < 0 || jump > window {
			t.Fatalf("trial %d: jump %d outside [0,%d]", trial, jump, window)
		}
		if jump == 0 {
			continue
		}
		// Replay the jumped boundaries tick by tick; every partial value
		// must agree exactly and no task may complete inside the jump.
		for i := range running {
			d, w := running[i].done, running[i].wall
			for k := int64(0); k < jump; k++ {
				d += stepD
				w += stepW
				if d >= running[i].t.Need {
					t.Fatalf("trial %d: task %d completed at boundary %d inside jump %d", trial, i, k+1, jump)
				}
			}
			if cd := running[i].done + float64(jump)*stepD; cd != d {
				t.Fatalf("trial %d: closed-form done %v != replayed %v", trial, cd, d)
			}
			if cw := running[i].wall + float64(jump)*stepW; cw != w {
				t.Fatalf("trial %d: closed-form wall %v != replayed %v", trial, cw, w)
			}
		}
		// A jump shortened below the window must stop exactly one
		// boundary short of some task's completion.
		if jump < window {
			hit := false
			for i := range running {
				if running[i].done+float64(jump+1)*stepD >= running[i].t.Need {
					hit = true
					break
				}
			}
			if !hit {
				t.Fatalf("trial %d: jump %d < window %d but no completion at next boundary", trial, jump, window)
			}
		}
	}
}

// TestAttachedNodeExactRegimeMatchesActorNode drives the same power-of-two
// step workload through the per-tick reference node and an event-driven
// node, comparing accrual at every second. The load mixes dyadic segments
// (closed-form jump) with a non-dyadic one (per-tick replay), so the test
// crosses both paths and their seams.
func TestAttachedNodeExactRegimeMatchesActorNode(t *testing.T) {
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	load := StepLoad(epoch,
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
		t.Fatalf("task did not complete: %v (progress %v)", tEv.State(), tEv.Progress())
	}
}

// TestLongTaskSinglePredictionBeyondReplayCap: in the exact regime the
// completion prediction is closed form, so a task needing far more ticks
// than maxPredictTicks completes with a handful of engine events rather
// than one wake per replay cap.
func TestLongTaskSinglePredictionBeyondReplayCap(t *testing.T) {
	tick := time.Second / 128
	g := NewGrid(tick, 1)
	n := g.AddSite("s").AddNode(g.Engine, "n", 1, IdleLoad())
	// 100000 cpu-seconds at share 1.0 and tick 2⁻⁷s: 12.8M boundaries,
	// three replay caps deep.
	if int64(100000*128) <= int64(maxPredictTicks) {
		t.Fatalf("test needs a task longer than the replay cap")
	}
	var doneAt time.Time
	task := NewTask("t", 100000, func(*Task) { doneAt = g.Engine.Now() })
	n.Place(task)
	g.Engine.RunFor(100001 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("task state = %v", task.State())
	}
	if got := doneAt.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)); got != 100000*time.Second {
		t.Fatalf("completed at +%v, want +100000s", got)
	}
	if g.Engine.Ticks() > 3 {
		t.Fatalf("long exact task visited %d boundaries, want ≤3", g.Engine.Ticks())
	}
	if got := task.CPUSeconds(); got != 100000 {
		t.Fatalf("cpu = %v, want exactly 100000", got)
	}
}

// TestSegPredictionAgreesWithSync fuzzes the prediction against the
// accrual: for random dyadic and non-dyadic configurations the boundary
// rederiveLocked schedules must be exactly the boundary syncLocked
// completes the task at.
func TestSegPredictionAgreesWithSync(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	ticks := []time.Duration{time.Second, time.Second / 2, time.Second / 128}
	loads := []float64{0, 0.5, 0.25, 0.3, 0.6, 0.875}
	for trial := 0; trial < 200; trial++ {
		tick := ticks[rng.Intn(len(ticks))]
		l1 := loads[rng.Intn(len(loads))]
		l2 := loads[rng.Intn(len(loads))]
		split := time.Duration(1+rng.Intn(50)) * time.Second
		load := StepLoad(epoch, []time.Duration{split}, []float64{l1, l2})
		mips := float64(1 + rng.Intn(2))
		need := float64(1+rng.Intn(100)) / 4

		g := NewGrid(tick, 1)
		n := g.AddSite("s").AddNode(g.Engine, "n", mips, load)
		var doneAt time.Time
		task := NewTask("t", need, func(*Task) { doneAt = g.Engine.Now() })
		n.Place(task)
		g.Engine.RunFor(4000 * time.Second)
		if task.State() != TaskDone {
			t.Fatalf("trial %d: task incomplete (tick=%v l1=%v l2=%v need=%v)", trial, tick, l1, l2, need)
		}
		// Replay the ground truth one addition per boundary.
		done, bt := 0.0, epoch
		sec := tick.Seconds()
		for i := 0; ; i++ {
			if i > 1<<24 {
				t.Fatalf("trial %d: reference replay ran away", trial)
			}
			bt = bt.Add(tick)
			v := l1
			if !bt.Before(epoch.Add(split)) {
				v = l2
			}
			done += sec * ((1 - v) * mips)
			if done >= need {
				break
			}
		}
		if !doneAt.Equal(bt) {
			t.Fatalf("trial %d: completed at %v, reference says %v (tick=%v l1=%v l2=%v need=%v)",
				trial, doneAt, bt, tick, l1, l2, need)
		}
	}
}

// TestExactJumpMisalignedAccumulatorFallsBack: a suspend mid-segment under
// a non-dyadic load leaves the accumulator off the step grid; the
// subsequent dyadic segment must then replay per tick and still match the
// per-tick reference node exactly.
func TestExactJumpMisalignedAccumulatorFallsBack(t *testing.T) {
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	load := StepLoad(epoch, []time.Duration{10 * time.Second}, []float64{0.3, 0})
	p := newNodePair(time.Second, 1, load)
	p.do(func(s *nodeSide) { s.place(55.5) })
	for i := 0; i < 90; i++ {
		p.runFor(time.Second)
		if i == 5 {
			p.do(func(s *nodeSide) { s.tasks[0].Suspend() })
		}
		if i == 8 {
			p.do(func(s *nodeSide) { s.tasks[0].Resume() })
		}
		if d := p.check(); d != "" {
			t.Fatalf("second %d diverged: %s", i+1, d)
		}
	}
	tEv := p.ev.tasks[0]
	if tEv.State() != TaskDone {
		t.Fatalf("task state = %v", tEv.State())
	}
	if math.Mod(tEv.CPUSeconds(), 1) == 0 {
		t.Fatalf("expected fractional cpu accumulator, got %v", tEv.CPUSeconds())
	}
}
