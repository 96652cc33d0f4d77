package simgrid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// checkSettled fails t unless the engine is between dispatches with
// nothing due at or before its current boundary: the invariant that makes
// a RunFor of one tick visit exactly the boundary a Step would, so that
// how a span is cut into RunFor calls cannot show.
func checkSettled(t *testing.T, e *Engine, where string) {
	t.Helper()
	if e.processing {
		t.Fatalf("%s: engine still dispatching", where)
	}
	if len(e.eq) > 0 && e.eq[0].tick <= e.nowTick {
		t.Fatalf("%s: event due at boundary %d, current boundary %d", where, e.eq[0].tick, e.nowTick)
	}
	if got, want := e.Now(), e.timeOf(e.nowTick); !got.Equal(want) {
		t.Fatalf("%s: clock reads %v, boundary %d is %v", where, got, e.nowTick, want)
	}
}

// cutScript replays one seeded mix of Schedule, Register+Request,
// NewPoller and Advance calls on a fresh engine, running each span it
// draws through runSpan, and returns the dispatch trace. Every draw comes
// from the script's own source in an order fixed by the trace so far, so
// two runs that dispatch alike see identical scripts. Callbacks log the
// clock as the engine reads it beside the instant they were handed, so a
// clock that runs ahead of its boundary shows too.
func cutScript(t *testing.T, seed int64, tick time.Duration, runSpan func(e *Engine, k int)) []string {
	t.Helper()
	e := NewEngine(tick)
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	epoch := e.Now()
	stamp := func(what string, now time.Time) {
		trace = append(trace, fmt.Sprintf("%s@%d/%d", what, now.Sub(epoch), e.Now().Sub(epoch)))
	}
	jitter := func() time.Duration {
		// Past, same-instant, on-grid and off-grid offsets alike.
		switch rng.Intn(4) {
		case 0:
			return -time.Duration(rng.Intn(3)) * tick
		case 1:
			return 0
		case 2:
			return time.Duration(rng.Intn(5)) * tick
		default:
			return time.Duration(rng.Int63n(int64(5 * tick)))
		}
	}
	var wakes []*Wake
	var schedule func(depth int)
	schedule = func(depth int) {
		name := fmt.Sprintf("t%d", len(trace))
		e.Schedule(jitter(), func(now time.Time) {
			stamp(name, now)
			if depth < 2 && rng.Intn(3) == 0 {
				schedule(depth + 1)
			}
			if len(wakes) > 0 && rng.Intn(2) == 0 {
				wakes[rng.Intn(len(wakes))].Request(now.Add(jitter()))
			}
		})
	}
	register := func() {
		i := len(wakes)
		var w *Wake
		w = e.Register(func(now time.Time) {
			stamp(fmt.Sprintf("c%d", i), now)
			for n := rng.Intn(3); n > 0; n-- {
				switch rng.Intn(3) {
				case 0:
					w.Request(now.Add(jitter()))
				case 1:
					wakes[rng.Intn(len(wakes))].Request(now.Add(jitter()))
				case 2:
					schedule(0)
				}
			}
		})
		wakes = append(wakes, w)
		w.Request(e.Now().Add(jitter()))
	}
	poll := func() {
		i := len(trace)
		period := time.Duration(1+rng.Intn(4)) * tick / time.Duration(1+rng.Intn(2))
		e.NewPoller(func() time.Duration { return period }, func(now time.Time) {
			stamp(fmt.Sprintf("p%d", i), now)
			if rng.Intn(4) == 0 {
				period = time.Duration(1+rng.Intn(6)) * tick
			}
		})
	}
	for round := 0; round < 80; round++ {
		for n := rng.Intn(5); n > 0; n-- {
			switch op := rng.Intn(6); {
			case op < 2:
				schedule(0)
			case op == 2:
				register()
			case op == 3 && len(wakes) > 0:
				wakes[rng.Intn(len(wakes))].Request(e.Now().Add(jitter()))
			case op == 4 && rng.Intn(3) == 0:
				poll()
			case op == 5:
				limit := e.Now().Add(jitter())
				stamp(fmt.Sprintf("advance%v", e.Advance(limit)), limit)
				checkSettled(t, e, fmt.Sprintf("seed %d round %d: after Advance", seed, round))
			}
		}
		runSpan(e, 1+rng.Intn(9))
		stamp(fmt.Sprintf("round%d/%d/%d", round, e.Events(), e.Ticks()), e.Now())
	}
	return trace
}

// TestRunForCutsAreInvisible runs seeded mixes of timers, wakes, pollers
// and Advance calls two ways: each span of k ticks as k calls of
// RunFor(tick), checking between calls that nothing is due at or before
// the current boundary, and as one RunFor(k·tick). The traces must match
// entry for entry — which is why no production caller needs to visit
// every boundary itself.
func TestRunForCutsAreInvisible(t *testing.T) {
	for _, tick := range []time.Duration{time.Second, time.Second / 128, 7 * time.Millisecond} {
		for seed := int64(1); seed <= 30; seed++ {
			perTick := cutScript(t, seed, tick, func(e *Engine, k int) {
				for ; k > 0; k-- {
					e.RunFor(tick)
					checkSettled(t, e, fmt.Sprintf("tick %v seed %d: after RunFor(tick)", tick, seed))
				}
			})
			whole := cutScript(t, seed, tick, func(e *Engine, k int) {
				e.RunFor(time.Duration(k) * tick)
				checkSettled(t, e, fmt.Sprintf("tick %v seed %d: after RunFor(%d ticks)", tick, seed, k))
			})
			if !slices.Equal(perTick, whole) {
				for i := range perTick {
					if i >= len(whole) || perTick[i] != whole[i] {
						t.Fatalf("tick %v seed %d: entry %d diverged: per tick %v, one call %v",
							tick, seed, i, perTick[max(i-3, 0):i+1], whole[max(i-3, 0):min(i+1, len(whole))])
					}
				}
				t.Fatalf("tick %v seed %d: per tick %d entries, one call %d", tick, seed, len(perTick), len(whole))
			}
			if len(perTick) < 200 {
				t.Fatalf("tick %v seed %d: vacuous script (%d entries)", tick, seed, len(perTick))
			}
		}
	}
}
