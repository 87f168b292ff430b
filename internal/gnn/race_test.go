//go:build race

package gnn

// raceEnabled skips allocation-count assertions under the race detector,
// which intentionally defeats sync.Pool caching and adds bookkeeping
// allocations.
const raceEnabled = true
