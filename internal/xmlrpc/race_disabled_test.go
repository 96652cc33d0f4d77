//go:build !race

package xmlrpc

const raceEnabled = false
