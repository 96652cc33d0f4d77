package simgrid

import (
	"math"
	"math/rand"
	"time"
)

// Load models background CPU load on a node as a run of constant
// segments: Segment(t) returns the fraction of the CPU, in [0, 1], that
// non-Grid work (interactive users, system daemons, higher-priority
// owners) consumes at t, and the instant the constant segment holding t
// ends — zero when the value holds forever. The value must hold over all
// of [t, until) and depend on t alone: a node reads a segment once and
// trusts it to its end, so settling a span and finding a completion cost
// one step per segment, not per tick. A Condor job on the node makes
// progress at rate 1-load.
type Load interface {
	Segment(t time.Time) (value float64, until time.Time)
}

// constantLoad is a load fixed forever at v.
type constantLoad struct{ v float64 }

func (c constantLoad) Segment(time.Time) (float64, time.Time) {
	return c.v, time.Time{}
}

// ConstantLoad returns a load fixed at x (clamped to [0, 1]): a single
// unbounded segment, so a node under it settles any span, and finds a
// completion, in one step.
func ConstantLoad(x float64) Load { return constantLoad{clamp01(x)} }

// IdleLoad is a node with no background activity.
func IdleLoad() Load { return ConstantLoad(0) }

// diurnalLoad models a daily usage cycle. Its value depends only on the
// hour and minute of the sampled instant, so each wall-clock minute is
// one constant segment.
type diurnalLoad struct {
	base, amplitude float64
	peakHour        int
}

func (d diurnalLoad) Segment(t time.Time) (float64, time.Time) {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	phase := 2 * math.Pi * (hour - float64(d.peakHour)) / 24
	return clamp01(d.base + d.amplitude*math.Cos(phase)), t.Truncate(time.Minute).Add(time.Minute)
}

// DiurnalLoad models a daily usage cycle: base load plus a sinusoid
// peaking at peakHour with the given amplitude. The curve only samples
// the hour and minute, so it is piecewise-constant with one-minute
// segments and event-driven nodes need at most one wake per minute of
// simulated time — not one per tick.
func DiurnalLoad(base, amplitude float64, peakHour int) Load {
	return diurnalLoad{base: base, amplitude: amplitude, peakHour: peakHour}
}

// stepLoad switches between fixed levels at fixed boundaries.
type stepLoad struct {
	epoch      time.Time
	boundaries []time.Duration
	levels     []float64
}

func (s stepLoad) Segment(t time.Time) (float64, time.Time) {
	d := t.Sub(s.epoch)
	for i, b := range s.boundaries {
		if d < b {
			return clamp01(s.levels[i]), s.epoch.Add(b)
		}
	}
	return clamp01(s.levels[len(s.levels)-1]), time.Time{}
}

// StepLoad switches between levels at fixed boundaries. Boundaries are
// offsets from epoch; levels[i] applies before boundaries[i], and the
// last level applies afterwards. len(levels) must be len(boundaries)+1
// and every level finite (a level is clamped into [0, 1] only when read).
// Each level is one constant segment, so event-driven nodes wake only at
// the step boundaries.
func StepLoad(epoch time.Time, boundaries []time.Duration, levels []float64) Load {
	if len(levels) != len(boundaries)+1 {
		panic("simgrid: StepLoad needs len(levels) == len(boundaries)+1")
	}
	for _, v := range levels {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic("simgrid: StepLoad levels must be finite")
		}
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			panic("simgrid: StepLoad boundaries must be strictly increasing")
		}
	}
	return stepLoad{epoch: epoch, boundaries: boundaries, levels: levels}
}

// noisyLoad perturbs a base load with seeded noise keyed on the whole
// second.
type noisyLoad struct {
	base      Load
	amplitude float64
	seed      int64
}

func (n noisyLoad) Segment(t time.Time) (float64, time.Time) {
	v, until := n.base.Segment(t)
	if next := t.Truncate(time.Second).Add(time.Second); until.IsZero() || next.Before(until) {
		until = next
	}
	h := n.seed ^ t.Unix()
	h ^= h << 13
	h ^= h >> 7
	h ^= h << 17
	r := rand.New(rand.NewSource(h))
	return clamp01(v + n.amplitude*(2*r.Float64()-1)), until
}

// NoisyLoad wraps a base load with seeded noise of the given amplitude,
// drawn afresh each whole second of simulated time: the same (seed,
// second) pair always yields the same value, so simulations remain
// reproducible regardless of call order, and a segment ends at the next
// whole second or at the base's own boundary, whichever comes first. A
// zero amplitude adds nothing: the result is the base.
func NoisyLoad(base Load, amplitude float64, seed int64) Load {
	if base == nil {
		base = IdleLoad()
	}
	if amplitude == 0 {
		return base
	}
	return noisyLoad{base: base, amplitude: amplitude, seed: seed}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
