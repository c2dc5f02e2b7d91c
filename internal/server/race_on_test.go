//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is given, so allocation counts are not meaningful.
const raceEnabled = true
