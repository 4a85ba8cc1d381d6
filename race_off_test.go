//go:build !race

package antdensity

// raceEnabled reports whether the race detector is active; allocation
// pins skip under it because instrumentation allocates.
const raceEnabled = false
