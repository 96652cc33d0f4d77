package vtime

import (
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
	c := NewSimClock(time.Time{})
	want := time.Date(2005, time.January, 1, 0, 0, 0, 0, time.UTC)
	if !c.Now().Equal(want) {
		t.Fatalf("default epoch = %v, want %v", c.Now(), want)
	}
}

func TestSimClockAdvance(t *testing.T) {
	epoch := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	c := NewSimClock(epoch)
	c.Advance(90 * time.Second)
	if got, want := c.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimClockAdvanceTo(t *testing.T) {
	c := NewSimClock(time.Time{})
	target := c.Now().Add(5 * time.Minute)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo: Now() = %v, want %v", c.Now(), target)
	}
	// Advancing to the past must be a no-op.
	c.AdvanceTo(target.Add(-time.Hour))
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo(past) moved clock to %v", c.Now())
	}
}

func TestSimClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewSimClock(time.Time{}).Advance(-1)
}
