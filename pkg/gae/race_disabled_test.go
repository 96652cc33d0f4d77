//go:build !race

package gae_test

const raceEnabled = false
