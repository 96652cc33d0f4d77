//go:build race

package clarens

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops buffers at random, so exact allocation ceilings skip
// themselves.
const raceEnabled = true
