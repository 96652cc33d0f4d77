package vtime

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockNow(t *testing.T) {
	c := Real()
	before := time.Now() //lint:walltime test exercises the real wall-clock escape hatch itself
	got := c.Now()
	after := time.Now() //lint:walltime test exercises the real wall-clock escape hatch itself
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real().Now() = %v, want within [%v, %v]", got, before, after)
	}
}

func TestSimClockDefaultEpoch(t *testing.T) {
	c := NewSimClock()
	want := time.Date(2005, time.January, 1, 0, 0, 0, 0, time.UTC)
	if c.Now() != want || Epoch != want {
		t.Fatalf("clock starts at %v, Epoch is %v, want %v", c.Now(), Epoch, want)
	}
}

func TestSimClockAdvance(t *testing.T) {
	c := NewSimClock()
	c.Advance(90 * time.Second)
	if got, want := c.Now(), Epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimClockAdvanceTo(t *testing.T) {
	c := NewSimClock()
	target := c.Now().Add(5 * time.Minute)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo: Now() = %v, want %v", c.Now(), target)
	}
	// Advancing to the past, or to where the clock already is, must be a
	// no-op.
	c.AdvanceTo(target.Add(-time.Hour))
	c.AdvanceTo(target)
	if c.Now() != target {
		t.Fatalf("AdvanceTo(past) moved clock to %v", c.Now())
	}
}

func TestSimClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewSimClock().Advance(-1)
}

// TestSimClockEqualsAddChain: goldens print the clock's readings, so a
// reading after a chain of Advance and AdvanceTo calls is == — the same
// wall, extended and location words, not merely the same instant — to
// the default epoch Added the same durations one by one.
func TestSimClockEqualsAddChain(t *testing.T) {
	c := NewSimClock()
	want := time.Date(2005, time.January, 1, 0, 0, 0, 0, time.UTC)
	if c.Now() != want {
		t.Fatalf("epoch: Now() = %#v, want %#v", c.Now(), want)
	}
	for i, d := range []time.Duration{0, 1, time.Second, 7 * time.Millisecond, 999_999_999, 36 * time.Hour, 1, 123_456_789_012} {
		c.Advance(d)
		want = want.Add(d)
		if got := c.Now(); got != want {
			t.Fatalf("after Advance #%d (%v): Now() = %#v, want %#v", i, d, got, want)
		}
		want = want.Add(3 * time.Second)
		c.AdvanceTo(want)
		if got := c.Now(); got != want {
			t.Fatalf("after AdvanceTo #%d: Now() = %#v, want %#v", i, got, want)
		}
	}
}

// TestSimClockConcurrentReaders reads the clock on several goroutines
// while one advances it by both methods: run under -race, a read needs
// no lock, and every reader sees the clock only go forward.
func TestSimClockConcurrentReaders(t *testing.T) {
	c := NewSimClock()
	const steps = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now.Before(last) {
					t.Errorf("clock went back from %v to %v", last, now)
					return
				}
				last = now
			}
		}()
	}
	epoch := c.Now()
	for i := 1; i <= steps; i++ {
		if i%2 == 0 {
			c.Advance(time.Second)
		} else {
			c.AdvanceTo(c.Now().Add(time.Second))
		}
		c.AdvanceTo(epoch) // the past: a no-op beside the readers
	}
	close(stop)
	wg.Wait()
	if got, want := c.Now(), epoch.Add(steps*time.Second); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

// TestSimClockConcurrentAdvanceTo: racing AdvanceTo calls leave the
// clock at the latest target, whatever order they land in.
func TestSimClockConcurrentAdvanceTo(t *testing.T) {
	c := NewSimClock()
	epoch := c.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AdvanceTo(epoch.Add(time.Duration(i*4+g) * time.Millisecond))
			}
		}(g)
	}
	wg.Wait()
	if got, want := c.Now(), epoch.Add(3999*time.Millisecond); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}
