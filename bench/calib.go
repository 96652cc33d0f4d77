package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// The box the benchmark runs on is a small shared virtual machine whose
// speed changes by 15 to 40 per cent for minutes at a time (neighbours on
// the same cores), for every program alike. A run therefore measures the
// box too: between its chunks of work it times a fixed kernel that no
// change to the repository can touch, and reports its timings scaled to
// a box on which that kernel takes calibRefMS.

// calibRefMS is what one kernel pass took, in the median, on the box the
// benchmark was defined on.
const calibRefMS = 17.0

// calibWords is what the kernel sorts.
var calibWords = func() []string {
	w := make([]string, 2048)
	x := uint32(1)
	for i := range w {
		x = x*1664525 + 1013904223
		w[i] = string([]byte{'a' + byte(x>>8%26), 'a' + byte(x>>13%26), 'a' + byte(x>>18%26), 'a' + byte(x>>23%26), 'a' + byte(x>>27%26)})
	}
	return w
}()

// calibChain and calibSorts size the kernel's two halves to about
// calibRefMS/2 each.
const (
	calibChain = 3_000_000
	calibSorts = 32
)

// calibSink keeps the compiler from discarding the kernel.
var calibSink [clients]uint64

// kernel is one pass: four independent arithmetic chains, which follow
// the clock frequency and what shares the core's execution units, and
// sorts of short strings in a scratch slice, which follow what shares its
// caches. Over forty minutes that included two disturbed periods, windows
// of 30 s of the four workloads' rates correlated 0.76 to 0.87 with this
// pair's speed, and scaling by it halved their spread (README.md, "The box
// and the calibration kernel").
func kernel(c int, scratch []string) {
	x0, x1, x2, x3 := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < calibChain; i++ {
		x0 ^= x0 << 13
		x1 ^= x1 << 13
		x2 ^= x2 << 13
		x3 ^= x3 << 13
		x0 ^= x0 >> 7
		x1 ^= x1 >> 7
		x2 ^= x2 >> 7
		x3 ^= x3 >> 7
		x0 ^= x0 << 17
		x1 ^= x1 << 17
		x2 ^= x2 << 17
		x3 ^= x3 << 17
	}
	for r := 0; r < calibSorts; r++ {
		copy(scratch, calibWords)
		slices.Sort(scratch)
	}
	calibSink[c] += x0 + x1 + x2 + x3 + uint64(len(scratch[0]))
}

// calibrator collects kernel timings over a run; passes is how many
// kernel passes one sample times, sensitivity the workload's (see
// workloads in metrics.go).
type calibrator struct {
	passes      int
	sensitivity float64
	ms          []float64
	scratch     [clients][]string
}

func newCalibrator(passes int, sensitivity float64) *calibrator {
	cal := &calibrator{passes: passes, sensitivity: sensitivity}
	for c := range cal.scratch {
		cal.scratch[c] = make([]string, len(calibWords))
	}
	return cal
}

// sample times the kernel, each pass run on all the clients' goroutines
// at once so that both processors are as busy as the workloads keep them,
// and returns how slow the box is right now for this workload: the
// passes' median time over calibRefMS, to the power of the workload's
// sensitivity.
func (cal *calibrator) sample() float64 {
	from := len(cal.ms)
	for i := 0; i < cal.passes; i++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				kernel(c, cal.scratch[c])
			}(c)
		}
		wg.Wait()
		cal.ms = append(cal.ms, time.Since(t0).Seconds()*1e3)
	}
	return math.Pow(median(cal.ms[from:])/calibRefMS, cal.sensitivity)
}

// samples holds one kind of timing as the clock read it and scaled to the
// reference box: each value by the box's slowness around the moment it
// was taken, so that a run during which the box changes speed scales each
// part of itself rightly.
type samples struct{ measured, scaled []float64 }

func (s *samples) addSeconds(sec, slow float64) {
	s.measured = append(s.measured, sec)
	s.scaled = append(s.scaled, sec/slow)
}

func (s *samples) addRate(rate, slow float64) {
	s.measured = append(s.measured, rate)
	s.scaled = append(s.scaled, rate*slow)
}
