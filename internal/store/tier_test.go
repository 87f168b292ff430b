package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpidetect/internal/fault"
)

type verdict struct {
	Label string
	Score float64
	Ranks int
}

func newTierT(t *testing.T, opts TierOptions) (*Store, *Tier[verdict]) {
	t.Helper()
	s := openT(t, t.TempDir(), Options{})
	tr := NewTier[verdict](s, "classify", opts)
	t.Cleanup(tr.Close)
	return s, tr
}

func TestTierStoreLoadRoundTrip(t *testing.T) {
	_, tr := newTierT(t, TierOptions{})
	tr.Store("m\x1f1\x1fdigest", verdict{Label: "deadlock", Score: 0.93, Ranks: 4})
	tr.Flush()
	v, ok, err := tr.Load("m\x1f1\x1fdigest")
	if err != nil || !ok || v.Label != "deadlock" || v.Score != 0.93 || v.Ranks != 4 {
		t.Fatalf("Load = %+v, %v, %v", v, ok, err)
	}
	if _, ok, _ := tr.Load("absent"); ok {
		t.Fatal("hit on absent key")
	}
	st := tr.Stats()
	if st.Enqueued != 1 || st.Persisted != 1 || st.Loads != 1 || st.LoadMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTierNamespaceIsolation(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	a := NewTier[verdict](s, "classify", TierOptions{})
	b := NewTier[verdict](s, "tool", TierOptions{})
	defer a.Close()
	defer b.Close()
	a.Store("same-key", verdict{Label: "from-a"})
	a.Flush()
	if _, ok, _ := b.Load("same-key"); ok {
		t.Fatal("namespace leak: tier b sees tier a's key")
	}
	if v, ok, _ := a.Load("same-key"); !ok || v.Label != "from-a" {
		t.Fatal("tier a lost its own key")
	}
}

// TestTierCloseDrainsQueue is the shutdown-ordering satellite at the
// store level: every persist accepted before Close must be durable.
func TestTierCloseDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	tr := NewTier[verdict](s, "classify", TierOptions{Queue: 4096})
	const n = 500
	for i := 0; i < n; i++ {
		tr.Store(fmt.Sprintf("key-%03d", i), verdict{Ranks: i})
	}
	tr.Close()
	st := tr.Stats()
	if st.Dropped != 0 {
		t.Fatalf("%d persists dropped with a roomy queue", st.Dropped)
	}
	if st.Persisted != n {
		t.Fatalf("persisted %d of %d enqueued before Close", st.Persisted, n)
	}
	s.Close()

	r := openT(t, dir, Options{})
	rt := NewTier[verdict](r, "classify", TierOptions{})
	defer rt.Close()
	for i := 0; i < n; i++ {
		v, ok, _ := rt.Load(fmt.Sprintf("key-%03d", i))
		if !ok || v.Ranks != i {
			t.Fatalf("key-%03d lost across clean shutdown (%+v, %v)", i, v, ok)
		}
	}
}

func TestTierDropAndCountUnderPressure(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	tr := NewTier[verdict](s, "classify", TierOptions{Queue: 1})
	// Park the writer on a blocking delete ack so the queue backs up.
	ack := make(chan int)
	tr.ch <- tierOp[verdict]{key: "park", del: true, done: ack}
	for i := 0; i < 50; i++ {
		tr.Store(fmt.Sprintf("k%d", i), verdict{})
	}
	st := tr.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops with a full queue")
	}
	if st.Enqueued+st.Dropped != 50 {
		t.Fatalf("enqueued %d + dropped %d != 50", st.Enqueued, st.Dropped)
	}
	<-ack
	tr.Close()
	if got := tr.Stats(); got.Persisted != got.Enqueued {
		t.Fatalf("close left %d accepted persists unapplied", got.Enqueued-got.Persisted)
	}
}

// TestTierDeleteOrdersAfterQueuedPuts: a DeletePrefix must doom persists
// enqueued before it — the FIFO queue may not let an older put land
// after the tombstone and resurrect the entry.
func TestTierDeleteOrdersAfterQueuedPuts(t *testing.T) {
	_, tr := newTierT(t, TierOptions{Queue: 256})
	for i := 0; i < 100; i++ {
		tr.Store(fmt.Sprintf("modelA\x1f1\x1fd%d", i), verdict{Ranks: i})
	}
	if n := tr.DeletePrefix("modelA\x1f"); n != 100 {
		t.Fatalf("DeletePrefix removed %d, want 100", n)
	}
	for i := 0; i < 100; i++ {
		if _, ok, _ := tr.Load(fmt.Sprintf("modelA\x1f1\x1fd%d", i)); ok {
			t.Fatalf("doomed key d%d resurrected", i)
		}
	}
}

func TestTierDeleteAfterCloseStillWorks(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	tr := NewTier[verdict](s, "classify", TierOptions{})
	tr.Store("k", verdict{Label: "x"})
	tr.Close()
	if n := tr.DeletePrefix("k"); n != 1 {
		t.Fatalf("post-close DeletePrefix = %d, want 1", n)
	}
	// Store after close: dropped, not panicking.
	tr.Store("k2", verdict{})
	if st := tr.Stats(); st.Dropped != 1 {
		t.Fatalf("post-close Store not counted as drop: %+v", st)
	}
	tr.Close() // idempotent
}

func TestTierGenOfStampsRecords(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	tr := NewTier[verdict](s, "classify", TierOptions{
		GenOf: func(key string) uint64 { return uint64(len(key)) },
	})
	defer tr.Close()
	tr.Store("abc", verdict{})
	tr.Flush()
	_, gen, ok := s.Get("classify" + nsSep + "abc")
	if !ok || gen != 3 {
		t.Fatalf("gen = %d, ok=%v; want 3,true", gen, ok)
	}
}

func TestTierConcurrentStoreLoad(t *testing.T) {
	_, tr := newTierT(t, TierOptions{Queue: 4096})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				tr.Store(key, verdict{Ranks: i})
				tr.Load(key)
			}
		}(g)
	}
	wg.Wait()
	tr.Flush()
	for g := 0; g < 8; g++ {
		for i := 0; i < 200; i++ {
			if v, ok, _ := tr.Load(fmt.Sprintf("g%d-k%d", g, i)); !ok || v.Ranks != i {
				t.Fatalf("g%d-k%d missing after flush", g, i)
			}
		}
	}
}

// fakeClock is a breaker clock that moves only when a test advances it.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestTierReadOnlyModeOnAppendFailures: consecutive append failures trip
// the persist breaker into read-only mode; loads keep serving, persists
// drop-and-count, and a successful cooldown probe restores full service.
func TestTierReadOnlyModeOnAppendFailures(t *testing.T) {
	defer fault.DisarmAll()
	var modes []string
	var mu sync.Mutex
	s := openT(t, t.TempDir(), Options{})
	clk := new(fakeClock)
	tr := NewTier[verdict](s, "classify", TierOptions{
		BreakerFailures: 2,
		BreakerCooldown: time.Millisecond,
		clock:           clk.now,
		OnModeChange: func(m string) {
			mu.Lock()
			modes = append(modes, m)
			mu.Unlock()
		},
	})
	defer tr.Close()

	tr.Store("before", verdict{Label: "kept"})
	tr.Flush()

	if err := fault.Arm(FaultAppend, fault.Spec{Mode: fault.Error, Message: "disk full"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tr.Store(fmt.Sprintf("failing-%d", i), verdict{})
	}
	tr.Flush()
	if got := tr.Mode(); got != "read-only" {
		t.Fatalf("mode = %q after append failures, want read-only", got)
	}
	// Loads still serve in read-only mode.
	if v, ok, err := tr.Load("before"); err != nil || !ok || v.Label != "kept" {
		t.Fatalf("read-only load = %+v, %v, %v", v, ok, err)
	}
	// Persists while open are dropped and counted, not attempted.
	tr.Store("while-open", verdict{})
	tr.Flush()
	st := tr.Stats()
	if st.PersistErrors != 2 || st.DegradedDrops == 0 {
		t.Fatalf("stats %+v; want 2 persist errors and >0 degraded drops", st)
	}

	// Recovery: disarm, wait out the cooldown, and a probe put closes it.
	fault.DisarmAll()
	clk.advance(2 * time.Millisecond)
	tr.Store("probe", verdict{Label: "back"})
	tr.Flush()
	if got := tr.Mode(); got != "ok" {
		t.Fatalf("mode = %q after successful probe, want ok", got)
	}
	if v, ok, _ := tr.Load("probe"); !ok || v.Label != "back" {
		t.Fatal("probe put not persisted after recovery")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(modes) < 2 || modes[len(modes)-1] != "ok" {
		t.Fatalf("mode changes %v; want trip then recovery", modes)
	}
}

// TestTierDisabledModeOnLoadFailures: consecutive load failures trip the
// load breaker; Load then answers miss without touching the store until
// a cooldown probe succeeds.
func TestTierDisabledModeOnLoadFailures(t *testing.T) {
	defer fault.DisarmAll()
	s := openT(t, t.TempDir(), Options{})
	clk := new(fakeClock)
	tr := NewTier[verdict](s, "classify", TierOptions{
		BreakerFailures: 2,
		BreakerCooldown: time.Millisecond,
		clock:           clk.now,
	})
	defer tr.Close()
	tr.Store("k", verdict{Label: "v"})
	tr.Flush()

	if err := fault.Arm(FaultBackingLoad, fault.Spec{Mode: fault.Error}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := tr.Load("k"); err == nil {
			t.Fatal("armed load fault returned no error")
		}
	}
	if got := tr.Mode(); got != "disabled" {
		t.Fatalf("mode = %q, want disabled", got)
	}
	// Open breaker: miss, no error, no injection hit.
	before := tr.Stats().LoadErrors
	if _, ok, err := tr.Load("k"); ok || err != nil {
		t.Fatalf("disabled load = %v, %v; want plain miss", ok, err)
	}
	if tr.Stats().LoadErrors != before {
		t.Fatal("disabled tier still touched the load path")
	}

	fault.DisarmAll()
	clk.advance(2 * time.Millisecond)
	if v, ok, err := tr.Load("k"); err != nil || !ok || v.Label != "v" {
		t.Fatalf("probe load = %+v, %v, %v; want recovery", v, ok, err)
	}
	if got := tr.Mode(); got != "ok" {
		t.Fatalf("mode = %q after probe, want ok", got)
	}
}

// TestTierWriterPanicRecovered: a panic inside the writer goroutine (an
// injected panic fault on append) is recovered and counted; the drainer
// keeps applying later operations, so Flush and Close still return.
func TestTierWriterPanicRecovered(t *testing.T) {
	defer fault.DisarmAll()
	s := openT(t, t.TempDir(), Options{})
	tr := NewTier[verdict](s, "classify", TierOptions{})
	defer tr.Close()

	if err := fault.Arm(FaultAppend, fault.Spec{Mode: fault.Panic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	tr.Store("boom", verdict{})
	tr.Store("after", verdict{Label: "alive"})
	tr.Flush()
	st := tr.Stats()
	if st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
	if v, ok, _ := tr.Load("after"); !ok || v.Label != "alive" {
		t.Fatal("writer dead after recovered panic")
	}
}

// TestTierPayloadFormat: a persisted payload is the format byte followed
// by the value's JSON.
func TestTierPayloadFormat(t *testing.T) {
	s, tr := newTierT(t, TierOptions{})
	tr.Store("k", verdict{Label: "deadlock", Score: 0.5, Ranks: 2})
	tr.Flush()
	raw, _, ok := s.Get("classify" + nsSep + "k")
	if !ok {
		t.Fatal("record not persisted")
	}
	want := "\x80" + `{"Label":"deadlock","Score":0.5,"Ranks":2}`
	if string(raw) != want {
		t.Fatalf("payload %q, want %q", raw, want)
	}
}

// TestTierLegacyGobRecordIsAMiss: a record an earlier version wrote as a
// gob stream survives a reopen, loads as a plain miss (no decode error,
// load breaker closed), and the next persist of its key supersedes it.
func TestTierLegacyGobRecordIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(&verdict{Label: "old", Score: 0.25, Ranks: 3}); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "classify"+nsSep+"k", 1, gobBuf.Bytes())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	tr := NewTier[verdict](r, "classify", TierOptions{BreakerFailures: 1})
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if v, ok, err := tr.Load("k"); ok || err != nil || v != (verdict{}) {
			t.Fatalf("legacy load = %+v, %v, %v; want a plain miss", v, ok, err)
		}
	}
	st := tr.Stats()
	if st.LoadMisses != 3 || st.LoadErrors != 0 || st.DecodeErrors != 0 || st.Mode != "ok" {
		t.Fatalf("stats %+v; want 3 misses, no errors, mode ok", st)
	}
	if load := tr.loadB.Stats(); load.State != "closed" {
		t.Fatalf("load breaker %+v after legacy loads, want closed", load)
	}

	tr.Store("k", verdict{Label: "new", Score: 0.75, Ranks: 4})
	tr.Flush()
	if v, ok, err := tr.Load("k"); err != nil || !ok || v != (verdict{Label: "new", Score: 0.75, Ranks: 4}) {
		t.Fatalf("after re-persist Load = %+v, %v, %v", v, ok, err)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("store holds %d live records, want 1 (the legacy one superseded)", n)
	}
}

// TestTierUnencodableValueIsAPersistError: a NaN score cannot be JSON;
// the persist is counted as an error and skipped on the breaker, so the
// tier stays in mode ok and later persists land.
func TestTierUnencodableValueIsAPersistError(t *testing.T) {
	_, tr := newTierT(t, TierOptions{BreakerFailures: 1})
	tr.Store("nan", verdict{Score: math.NaN()})
	tr.Store("inf", verdict{Score: math.Inf(1)})
	tr.Store("ok", verdict{Label: "fine"})
	tr.Flush()
	st := tr.Stats()
	if st.PersistErrors != 2 || st.Persisted != 1 || st.Mode != "ok" {
		t.Fatalf("stats %+v; want 2 persist errors, 1 persisted, mode ok", st)
	}
	if _, ok, _ := tr.Load("nan"); ok {
		t.Fatal("unencodable value was persisted")
	}
	if v, ok, _ := tr.Load("ok"); !ok || v.Label != "fine" {
		t.Fatal("persist after an unencodable value was lost")
	}
}

// TestTierCorruptPayloadIsADecodeError: a payload that carries the
// format byte but no valid JSON is a counted decode error that feeds the
// load breaker.
func TestTierCorruptPayloadIsADecodeError(t *testing.T) {
	s, tr := newTierT(t, TierOptions{BreakerFailures: 3, BreakerCooldown: time.Hour})
	for _, p := range []string{"\x80", "\x80{\"Label\":", "\x80[1,2]"} {
		mustPut(t, s, "classify"+nsSep+"bad", 0, []byte(p))
		if _, ok, err := tr.Load("bad"); ok || err == nil {
			t.Fatalf("payload %q loaded as ok=%v err=%v; want a decode error", p, ok, err)
		}
	}
	st := tr.Stats()
	if st.DecodeErrors != 3 || st.LoadErrors != 3 || st.Mode != "disabled" {
		t.Fatalf("stats %+v; want 3 decode errors and mode disabled", st)
	}
}
