//go:build !race

package passes_test

const raceEnabled = false
