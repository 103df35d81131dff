//go:build race

package concurrent

// raceEnabled reports that the race detector is on; the alloc-gate tests
// skip themselves then, because the race runtime allocates per operation.
const raceEnabled = true
