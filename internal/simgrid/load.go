package simgrid

import (
	"math"
	"math/rand"
	"time"
)

// Load models background CPU load on a node as a function of simulated
// time: LoadAt returns a value in [0, 1], the fraction of the CPU
// consumed by non-Grid work (interactive users, system daemons,
// higher-priority owners). A Condor job on the node makes progress at
// rate 1-load.
type Load interface {
	LoadAt(t time.Time) float64
}

// LoadFn adapts a plain function to the Load interface. Function loads
// are conservatively treated as time-varying — a constant segment per
// tick: a node samples them at every boundary it settles over and, to
// schedule a completion, up to maxSegments boundaries ahead, so the
// function must depend on its argument alone. One that does not (a closure
// over state changed behind the node's back; SetLoad is the way to change
// a load) has its completions reported late: at the node's next wake, or
// the boundary after the next read. Loads that are constant over known
// intervals should implement PiecewiseConstant instead (all constructors
// in this package do), which makes a settle and a completion deadline cost
// one step per segment, not per tick.
type LoadFn func(t time.Time) float64

// LoadAt implements Load.
func (f LoadFn) LoadAt(t time.Time) float64 { return f(t) }

// PiecewiseConstant is the optional contract that makes a load
// event-friendly: Segment(t) returns the load value in effect at t and
// the instant the current constant segment ends. The value must already
// be clamped to [0, 1] and must equal clamp01(LoadAt(u)) for every u in
// [t, until). A zero until means the value holds forever.
//
// Detection is structural — a type assertion — so wrappers compose: a
// decorator that preserves piecewise-ness simply implements Segment by
// delegation, and one that destroys it (e.g. additive noise) simply
// doesn't.
type PiecewiseConstant interface {
	Load
	Segment(t time.Time) (value float64, until time.Time)
}

// pieceOf returns l by constant segments. A nil load counts as
// permanently idle; a load that only supports point sampling is served
// one tick at a time.
func pieceOf(l Load, tick time.Duration) PiecewiseConstant {
	if l == nil {
		return constantLoad{0}
	}
	if pc, ok := l.(PiecewiseConstant); ok {
		return pc
	}
	return tickSegments{l, tick}
}

// tickSegments adapts an opaque load to the PiecewiseConstant contract
// the only way that is always true: each sample holds for the one
// boundary it was taken at.
type tickSegments struct {
	Load
	tick time.Duration
}

func (s tickSegments) Segment(t time.Time) (float64, time.Time) {
	return clamp01(s.LoadAt(t)), t.Add(s.tick)
}

// constantLoad is a load fixed forever at v.
type constantLoad struct{ v float64 }

func (c constantLoad) LoadAt(time.Time) float64 { return c.v }

func (c constantLoad) Segment(time.Time) (float64, time.Time) {
	return c.v, time.Time{}
}

// ConstantLoad returns a load fixed at x (clamped to [0, 1]). The result
// implements PiecewiseConstant with a single unbounded segment: a node
// under it settles any span, and finds a completion, in one step.
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

func (d diurnalLoad) LoadAt(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	phase := 2 * math.Pi * (hour - float64(d.peakHour)) / 24
	return clamp01(d.base + d.amplitude*math.Cos(phase))
}

func (d diurnalLoad) Segment(t time.Time) (float64, time.Time) {
	return d.LoadAt(t), t.Truncate(time.Minute).Add(time.Minute)
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

func (s stepLoad) LoadAt(t time.Time) float64 {
	v, _ := s.Segment(t)
	return v
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
// last level applies afterwards. len(levels) must be len(boundaries)+1.
// Each level is one constant segment, so event-driven nodes wake only at
// the step boundaries.
func StepLoad(epoch time.Time, boundaries []time.Duration, levels []float64) Load {
	if len(levels) != len(boundaries)+1 {
		panic("simgrid: StepLoad needs len(levels) == len(boundaries)+1")
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			panic("simgrid: StepLoad boundaries must be strictly increasing")
		}
	}
	return stepLoad{epoch: epoch, boundaries: boundaries, levels: levels}
}

// noisyLoad perturbs a base load with seeded, time-hashed noise.
type noisyLoad struct {
	base      Load
	amplitude float64
	seed      int64
}

func (n noisyLoad) LoadAt(t time.Time) float64 {
	h := n.seed ^ t.Unix()
	h ^= h << 13
	h ^= h >> 7
	h ^= h << 17
	r := rand.New(rand.NewSource(h))
	return clamp01(n.base.LoadAt(t) + n.amplitude*(2*r.Float64()-1))
}

// clampedLoad clamps a base load into [0, 1], preserving its piecewise
// segments when it has them.
type clampedLoad struct{ base PiecewiseConstant }

func (c clampedLoad) LoadAt(t time.Time) float64 { return clamp01(c.base.LoadAt(t)) }

func (c clampedLoad) Segment(t time.Time) (float64, time.Time) {
	v, until := c.base.Segment(t)
	return clamp01(v), until
}

// NoisyLoad wraps a base load with seeded, time-hashed noise of the given
// amplitude. The same (seed, time) pair always yields the same value, so
// simulations remain reproducible regardless of call order. A zero
// amplitude adds exactly nothing: the result then preserves the base's
// piecewise-constant segments instead of degrading it to per-tick
// sampling.
func NoisyLoad(base Load, amplitude float64, seed int64) Load {
	if base == nil {
		base = IdleLoad()
	}
	if amplitude == 0 {
		if pc, ok := base.(PiecewiseConstant); ok {
			return clampedLoad{base: pc}
		}
		return LoadFn(func(t time.Time) float64 { return clamp01(base.LoadAt(t)) })
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
