//go:build race

package serve

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop items at random and so breaks alloc pins.
const raceEnabled = true
