package serve

import "mpidetect/internal/events"

// Test-only API: production code does not call it.

// InvalidateTool sweeps one tool's cached verdicts across every
// configuration; it returns the number of entries removed. The sweep is
// published on the event bus.
func (e *Engine) InvalidateTool(name string) int {
	if e.toolCache == nil {
		return 0
	}
	n := e.toolCache.InvalidatePrefix(toolPrefix(name))
	e.bus.Publish(events.CacheInvalidated,
		CacheInvalidatedData{Scope: "tool", Name: name, Entries: n})
	return n
}
