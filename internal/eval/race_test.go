//go:build race

package eval

// raceEnabled: the race detector's instrumentation allocates, so allocation
// guards skip.
const raceEnabled = true
