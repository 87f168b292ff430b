// Tier: the typed write-behind adapter between one in-memory cache and
// the shared segment store. It satisfies the cache package's Backing
// interface (Load / Store / DeletePrefix) without either package
// importing the other.
//
// Writes are asynchronous: Store enqueues onto a bounded queue drained
// by one writer goroutine, and when the queue is full the persist is
// dropped and counted — the durable tier is an accelerator, and backing
// up the serving path to guarantee a disk write would invert that
// priority. Deletes and flushes ride the same queue, so they order after
// every persist enqueued before them; DeletePrefix blocks until the
// tombstone lands, which is what invalidation correctness needs (after
// it returns, no swept entry can be hydrated). Close drains the queue
// completely — a cleanly shut down server loses no accepted persist.
//
// Degraded modes: two circuit breakers guard the store I/O. Consecutive
// append failures (disk full, injected store.append faults) trip the
// persist breaker and flip the tier "read-only" — persists are dropped
// and counted while loads keep serving — with a half-open probe per
// cooldown to detect recovery. Consecutive load failures (corrupt
// records, injected cache.backing.load faults) trip the load breaker and
// flip the tier "disabled": loads answer miss without touching the disk,
// so the in-memory LRU keeps serving alone. Both recover automatically
// when a probe succeeds; Mode reports ok / read-only / disabled, and the
// writer goroutine recovers panics rather than taking down the daemon.
//
// Each Tier owns a key namespace inside the store ("classify", "tool"),
// so several caches share one segment log without key collisions.
//
// Payload format: one format byte, payloadJSON, followed by the value's
// encoding/json encoding — the encoding the serving layer's verdict types
// already have on the wire, so encoding needs no per-type code and no
// per-record type description. A value JSON cannot encode (a NaN or
// infinite float) is a persist error, and strings round-trip as JSON
// strings do (invalid UTF-8 comes back as U+FFFD, as it would over
// HTTP). A payload that does not start with the format byte is a record
// an earlier version wrote in gob: Load answers it as a plain miss, not a
// decode error, so it never counts against the load breaker, and the
// recomputed verdict supersedes it on its next persist.
package store

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/fault"
	"mpidetect/internal/resilience"
	"mpidetect/internal/telemetry"
)

// payloadJSON starts every payload the tier writes; the value's JSON
// follows it. No gob stream starts with this byte (a gob message begins
// with its length, 0x01–0x7F or 0xF8–0xFF), so it tells a current record
// from one an earlier version wrote in gob.
const payloadJSON byte = 0x80

// FaultBackingLoad is the tier's load-path fault point: an armed fault
// fails Load the way a corrupt or unreadable record would, which is also
// how tests trip the load breaker into the "disabled" mode.
var FaultBackingLoad = fault.Register("cache.backing.load")

// NamespaceSep separates the tier namespace from the cache key inside
// store keys. NUL cannot appear in model names, tool names or hex
// digests. Exported so store-owning layers can parse raw record keys
// (snapshot-restore filtering).
const NamespaceSep = "\x00"

// nsSep is the internal alias.
const nsSep = NamespaceSep

// TierOptions sizes a tier; zero values take the documented defaults.
type TierOptions struct {
	// Queue bounds the pending write-behind persists (default 1024).
	Queue int
	// GenOf extracts the model generation carried on each persisted
	// record from its cache key (nil = every record is generation 0).
	// The serving layer parses the generation segment of its classify
	// keys here, so snapshot restores can reject records from model
	// generations that no longer match the live registry.
	GenOf func(key string) uint64
	// BreakerFailures is the consecutive store-I/O failure count that
	// trips a tier breaker (default 3); BreakerCooldown is the open
	// period before a recovery probe (default 15s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// OnModeChange, when set, is invoked (off the breaker locks) every
	// time the tier's degraded mode changes; the serving engine publishes
	// it on the event bus and folds it into readyz.
	OnModeChange func(mode string)

	// clock stands in for time.Now in both breakers (nil = time.Now), so
	// tests can step through a cooldown without sleeping.
	clock func() time.Time
}

// TierStats is a point-in-time snapshot of one tier's counters. Mode is
// the degraded-mode state ("ok", "read-only", "disabled");
// DegradedDrops counts persists discarded while read-only, LoadErrors
// counts failed (not missing) loads, and Panics counts writer-goroutine
// panics recovered without crashing.
type TierStats struct {
	Mode          string `json:"mode"`
	Enqueued      int64  `json:"enqueued"`
	Persisted     int64  `json:"persisted"`
	Dropped       int64  `json:"dropped"`
	DegradedDrops int64  `json:"degraded_drops"`
	Loads         int64  `json:"loads"`
	LoadMisses    int64  `json:"load_misses"`
	LoadErrors    int64  `json:"load_errors"`
	DecodeErrors  int64  `json:"decode_errors"`
	PersistErrors int64  `json:"persist_errors"`
	Panics        int64  `json:"panics"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

// tierOp is one queued operation: a put, a prefix delete, or (neither
// flag) a flush barrier.
type tierOp[V any] struct {
	key  string
	val  V
	put  bool     // persist val under key
	del  bool     // append a prefix tombstone for key
	done chan int // delete ack / flush barrier; receives the delete count
}

// Tier adapts one typed cache to the shared store with a write-behind
// queue. Each record's payload is payloadJSON and the value's JSON, and
// Load answers any other payload as a miss (see the file comment).
// Construct with NewTier; Close when the owning engine drains.
type Tier[V any] struct {
	stats TierStats // live counters; first, for 64-bit atomics on 32-bit targets
	st    *Store
	ns    string
	genOf func(string) uint64

	// persistB guards the append path (tripped = read-only); loadB
	// guards the hydrate path (tripped = disabled).
	persistB *resilience.Breaker
	loadB    *resilience.Breaker
	onMode   func(string)

	mu     sync.RWMutex // guards ch against send-after-close
	closed bool
	ch     chan tierOp[V]
	wg     sync.WaitGroup
	buf    []byte // payload scratch, owned by the writer goroutine

	loadBufs sync.Pool // *loadBuf, Load's scratch
}

// NewTier builds a tier over st with its own key namespace and starts
// its writer goroutine.
func NewTier[V any](st *Store, namespace string, opts TierOptions) *Tier[V] {
	if opts.Queue <= 0 {
		opts.Queue = 1024
	}
	if opts.BreakerFailures <= 0 {
		opts.BreakerFailures = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 15 * time.Second
	}
	t := &Tier[V]{st: st, ns: namespace, genOf: opts.GenOf, onMode: opts.OnModeChange,
		ch: make(chan tierOp[V], opts.Queue)}
	bcfg := resilience.BreakerConfig{
		Failures: opts.BreakerFailures, Cooldown: opts.BreakerCooldown, Clock: opts.clock,
		OnChange: func(_, _ resilience.BreakerState) { t.modeChanged() },
	}
	t.persistB = resilience.NewBreaker(bcfg)
	t.loadB = resilience.NewBreaker(bcfg)
	t.wg.Add(1)
	go t.writer()
	return t
}

func (t *Tier[V]) storeKey(key string) string { return t.ns + nsSep + key }

// Mode reports the tier's degraded-mode state: "ok" (both breakers
// closed), "read-only" (append breaker tripped: loads serve, persists
// drop), or "disabled" (load breaker tripped: the in-memory LRU serves
// alone).
func (t *Tier[V]) Mode() string {
	if t.loadB.State() != resilience.Closed {
		return "disabled"
	}
	if t.persistB.State() != resilience.Closed {
		return "read-only"
	}
	return "ok"
}

func (t *Tier[V]) modeChanged() {
	if t.onMode != nil {
		t.onMode(t.Mode())
	}
}

func (t *Tier[V]) writer() {
	defer t.wg.Done()
	for op := range t.ch {
		t.apply(op)
	}
}

// apply runs one queued operation, recovering panics (a panicking
// encoder or injected fault must not kill the drainer and wedge every
// DeletePrefix/Flush behind it). The done sends are the last statements
// of their branches, so a recovered panic can never have half-acked.
func (t *Tier[V]) apply(op tierOp[V]) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&t.stats.Panics, 1)
			if op.done != nil {
				op.done <- 0
			}
		}
	}()
	switch {
	case op.del:
		n, _ := t.st.DeletePrefix(t.storeKey(op.key))
		if op.done != nil {
			op.done <- n
		}
	case op.put:
		t.persist(op)
	default: // flush barrier
		if op.done != nil {
			op.done <- 0
		}
	}
}

// persist writes one queued put, recording the outcome on the persist
// breaker: while it is open the put is dropped and counted (read-only
// mode), and per cooldown one put probes the store for recovery.
func (t *Tier[V]) persist(op tierOp[V]) {
	if !t.persistB.Allow() {
		atomic.AddInt64(&t.stats.DegradedDrops, 1)
		return
	}
	js, err := json.Marshal(&op.val)
	if err != nil {
		// An unencodable value is a caller bug, not store health: it says
		// nothing about the disk, so it never trips the breaker.
		atomic.AddInt64(&t.stats.PersistErrors, 1)
		t.persistB.Skip()
		return
	}
	t.buf = append(append(t.buf[:0], payloadJSON), js...) // Put copies it
	gen := uint64(0)
	if t.genOf != nil {
		gen = t.genOf(op.key)
	}
	err = t.st.Put(t.storeKey(op.key), gen, t.buf)
	t.persistB.Record(err == nil)
	if err != nil {
		atomic.AddInt64(&t.stats.PersistErrors, 1)
		return
	}
	atomic.AddInt64(&t.stats.Persisted, 1)
}

// loadBuf is one Load's scratch: the store key it looks up and the
// buffer the record is read into, both reused once the payload is
// decoded (json.Unmarshal copies what it keeps).
type loadBuf struct{ key, rec []byte }

// Load hydrates key from the store. A missing record, or one an earlier
// version wrote in another payload format, is a plain miss; a failed
// load (injected fault, corrupt record) is a miss with a non-nil error,
// counted here and on the load breaker — enough consecutive failures
// disable the tier and Load answers miss without touching the store
// until a cooldown probe succeeds.
func (t *Tier[V]) Load(key string) (V, bool, error) {
	var v V
	if !t.loadB.Allow() {
		return v, false, nil
	}
	if err := fault.Inject(FaultBackingLoad); err != nil {
		atomic.AddInt64(&t.stats.LoadErrors, 1)
		t.loadB.Record(false)
		return v, false, err
	}
	lb, _ := t.loadBufs.Get().(*loadBuf)
	if lb == nil {
		lb = new(loadBuf)
	}
	defer t.loadBufs.Put(lb)
	lb.key = append(append(append(lb.key[:0], t.ns...), nsSep...), key...)
	raw, _, rec, ok := getInto(t.st, lb.key, lb.rec)
	lb.rec = rec
	if !ok || len(raw) == 0 || raw[0] != payloadJSON {
		atomic.AddInt64(&t.stats.LoadMisses, 1)
		t.loadB.Record(true)
		return v, false, nil
	}
	if err := json.Unmarshal(raw[1:], &v); err != nil {
		atomic.AddInt64(&t.stats.DecodeErrors, 1)
		atomic.AddInt64(&t.stats.LoadErrors, 1)
		t.loadB.Record(false)
		return v, false, err
	}
	atomic.AddInt64(&t.stats.Loads, 1)
	t.loadB.Record(true)
	return v, true, nil
}

// Store enqueues an asynchronous persist of (key, v). Never blocks: when
// the queue is full the persist is dropped and counted.
func (t *Tier[V]) Store(key string, v V) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		atomic.AddInt64(&t.stats.Dropped, 1)
		return
	}
	select {
	case t.ch <- tierOp[V]{key: key, val: v, put: true}:
		atomic.AddInt64(&t.stats.Enqueued, 1)
	default:
		atomic.AddInt64(&t.stats.Dropped, 1)
	}
}

// DeletePrefix dooms every persisted record under prefix, blocking until
// the tombstone is durable in the log (ordered after all previously
// enqueued persists). Returns the number of records removed.
func (t *Tier[V]) DeletePrefix(prefix string) int {
	done := make(chan int, 1)
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		n, _ := t.st.DeletePrefix(t.storeKey(prefix))
		return n
	}
	t.ch <- tierOp[V]{key: prefix, del: true, done: done}
	t.mu.RUnlock()
	return <-done
}

// Flush blocks until every operation enqueued before it has been
// applied to the store.
func (t *Tier[V]) Flush() {
	done := make(chan int, 1)
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return
	}
	t.ch <- tierOp[V]{done: done}
	t.mu.RUnlock()
	<-done
}

// Close drains the queue and stops the writer: every persist accepted
// before Close is applied to the store. Idempotent; Store calls after
// Close drop-and-count.
func (t *Tier[V]) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.ch)
	t.mu.Unlock()
	t.wg.Wait()
}

// Stats snapshots the tier counters.
func (t *Tier[V]) Stats() TierStats {
	s := telemetry.Snapshot(&t.stats)
	s.Mode = t.Mode()
	s.QueueDepth = len(t.ch)
	s.QueueCapacity = cap(t.ch)
	return s
}
