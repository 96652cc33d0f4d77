//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation ceilings skip themselves.
const raceEnabled = true
