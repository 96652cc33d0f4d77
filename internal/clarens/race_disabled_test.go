//go:build !race

package clarens

const raceEnabled = false
