// Durable-store admin surface: snapshot/list/restore operations over
// the engine's persistent verdict tier, plus the /v1/stats "store"
// section. The transport (serve/rest) maps these onto the
// /v1/admin/... endpoints.
package serve

import (
	"errors"
	"strconv"
	"strings"

	"mpidetect/internal/events"
	"mpidetect/internal/store"
)

// ErrStoreDisabled is returned by the admin operations when the engine
// runs without a durable store (no -store-dir).
var ErrStoreDisabled = errors.New("serve: durable store disabled")

// classifyKeyGen extracts the registry slot generation from a classify
// cache key (model <keySep> base36-generation <keySep> digest) so each
// persisted record carries the generation it was computed under.
func classifyKeyGen(key string) uint64 {
	i := strings.Index(key, keySep)
	if i < 0 {
		return 0
	}
	rest := key[i+len(keySep):]
	j := strings.Index(rest, keySep)
	if j < 0 {
		return 0
	}
	gen, err := strconv.ParseUint(rest[:j], 36, 64)
	if err != nil {
		return 0
	}
	return gen
}

// StoreStats is the "store" section of /v1/stats: the segment log's
// counters plus one write-behind tier per persisted cache. Hydration
// counts live with their caches (cache.hydrations / tool_cache.hydrations).
type StoreStats struct {
	Dir      string           `json:"dir"`
	Log      store.Stats      `json:"log"`
	Classify store.TierStats  `json:"classify_tier"`
	Tool     *store.TierStats `json:"tool_tier,omitempty"`
}

// StoreStats snapshots the durable tier; ok is false when disabled.
func (e *Engine) StoreStats() (StoreStats, bool) {
	if e.st == nil {
		return StoreStats{}, false
	}
	s := StoreStats{Dir: e.st.Dir(), Log: e.st.Stats(),
		Classify: e.classifyTier.Stats()}
	if e.toolTier != nil {
		ts := e.toolTier.Stats()
		s.Tool = &ts
	}
	return s, true
}

// flushTiers pushes every pending write-behind persist into the store so
// snapshot and restore operate on a complete picture.
func (e *Engine) flushTiers() {
	if e.classifyTier != nil {
		e.classifyTier.Flush()
	}
	if e.toolTier != nil {
		e.toolTier.Flush()
	}
}

// SnapshotStore flushes the write-behind queues and archives the store's
// live records under name, publishing snapshot.created on success.
func (e *Engine) SnapshotStore(name string) (store.SnapshotInfo, error) {
	if e.st == nil {
		return store.SnapshotInfo{}, ErrStoreDisabled
	}
	e.flushTiers()
	info, err := e.st.Snapshot(name)
	if err != nil {
		return store.SnapshotInfo{}, err
	}
	e.bus.Publish(events.SnapshotCreated, info)
	return info, nil
}

// StoreSnapshots lists the archived snapshots, newest first.
func (e *Engine) StoreSnapshots() ([]store.SnapshotInfo, error) {
	if e.st == nil {
		return nil, ErrStoreDisabled
	}
	return e.st.Snapshots()
}

// RestoreStore replaces the durable tier's contents with the named
// archive and sweeps the in-memory caches, so subsequent lookups hydrate
// from the restored state. Archive records whose model generation does
// not match the live registry slot are dropped rather than restored — a
// snapshot taken against a since-retrained model must not serve its
// stale verdicts.
func (e *Engine) RestoreStore(name string) (store.RestoreInfo, error) {
	if e.st == nil {
		return store.RestoreInfo{}, ErrStoreDisabled
	}
	// The sweep below is destructive (its backing tombstones doom every
	// persisted record), so reject a bad or unknown archive before
	// touching anything — a typo'd restore must not wipe the live tier.
	if err := e.st.ValidateSnapshot(name); err != nil {
		return store.RestoreInfo{}, err
	}
	// Order matters: flush pending persists (they reference pre-restore
	// state), then sweep memory so nothing stale shadows the restored
	// records. The sweep's own backing tombstones are swallowed by the
	// segment rebuild inside Restore.
	e.flushTiers()
	swept := e.cache.InvalidatePrefix("")
	if e.toolCache != nil {
		swept += e.toolCache.InvalidatePrefix("")
	}
	info, err := e.st.Restore(name, e.keepRestoredRecord)
	if err != nil {
		return info, err
	}
	e.bus.Publish(events.CacheInvalidated,
		CacheInvalidatedData{Scope: "restore", Name: name, Entries: swept})
	return info, nil
}

// keepRestoredRecord filters one archive record by store key: classify
// records must match the live generation of their model slot; tool
// records carry no generation and are always kept (tool invalidation is
// operational, on re-registration, not generational).
func (e *Engine) keepRestoredRecord(key string, gen uint64) bool {
	ns, cacheKey, ok := strings.Cut(key, store.NamespaceSep)
	if !ok || ns != "classify" {
		return true
	}
	model, _, ok := strings.Cut(cacheKey, keySep)
	if !ok {
		return false
	}
	return e.reg.Generation(model) == gen
}
