//go:build !race

package concurrent

// raceEnabled reports that the race detector is off.
const raceEnabled = false
