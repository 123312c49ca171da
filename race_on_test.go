//go:build race

package pilgrim_test

// raceEnabled: the race detector slows the tracer and an outside
// stopwatch differently, so wall-clock comparisons skip under it.
const raceEnabled = true
