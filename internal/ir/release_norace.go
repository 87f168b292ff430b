//go:build !race

package ir

// poisonReleased is false outside race-detector builds: Release clears
// the arena and recycles it (see release_race.go).
const poisonReleased = false
