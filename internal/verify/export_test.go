package verify

import (
	"mpidetect/internal/dataset"
	"mpidetect/internal/metrics"
)

// Test-only API: production code does not call it.

// evaluateSerial is the single-threaded reference path, kept so tests
// can pin Evaluate's parallel fan-out to bit-identical tallies.
func evaluateSerial(t Tool, d *dataset.Dataset) metrics.Confusion {
	verdicts := make([]Verdict, len(d.Codes))
	for i, code := range d.Codes {
		verdicts[i] = t.Check(code)
	}
	return tally(d, verdicts)
}
