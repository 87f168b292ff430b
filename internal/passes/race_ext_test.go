//go:build race

package passes_test

// raceEnabled skips allocation-count assertions under the race detector,
// which adds bookkeeping allocations, and in whose builds Release poisons
// arenas instead of recycling them.
const raceEnabled = true
