//go:build !race

package dfscode

const raceEnabled = false
