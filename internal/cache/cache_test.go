package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPut(t *testing.T) {
	c := New[int](Config{Capacity: 8, Shards: 1})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v want 1,true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats %+v: want 1 hit, 1 miss, size 1", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string](Config{Capacity: 8, Shards: 1, TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Put("k", "v")
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(2 * time.Second) // refresh on the 59s Get does not apply: TTL runs from Put
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived past its TTL")
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", st.Expirations)
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still stored, len %d", c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](Config{Capacity: 2, Shards: 1})
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes least recently used
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c (just inserted) was evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New[int](Config{Capacity: 16, Shards: 4})
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew to %d entries, capacity 16", c.Len())
	}
}

// TestCoalescing is the singleflight contract: N concurrent callers for
// one key execute the compute function exactly once and all observe its
// value.
func TestCoalescing(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	const n = 32
	var execs atomic.Int32
	start := make(chan struct{})
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.GetOrCompute("key", func() (int, error) {
				execs.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the flight open so everyone joins
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers, want exactly 1", got, n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	st := c.Stats()
	if st.Coalesced == 0 {
		t.Fatal("no callers were counted as coalesced")
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d", st.Inflight)
	}
}

func TestErrorsAreBroadcastButNotCached(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	boom := errors.New("boom")
	if _, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	var ran bool
	v, err := c.GetOrCompute("k", func() (int, error) { ran = true; return 7, nil })
	if err != nil || v != 7 || !ran {
		t.Fatalf("failed compute was cached: v=%d err=%v ran=%v", v, err, ran)
	}
}

func TestInvalidatePrefixRemovesOnlyMatching(t *testing.T) {
	c := New[int](Config{Capacity: 64})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("modelA\x1fdigest%d", i), i)
		c.Put(fmt.Sprintf("modelB\x1fdigest%d", i), i)
	}
	removed := c.InvalidatePrefix("modelA\x1f")
	if removed != 10 {
		t.Fatalf("removed %d entries, want 10", removed)
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("modelA\x1fdigest%d", i)); ok {
			t.Fatal("modelA entry survived invalidation")
		}
		if _, ok := c.Get(fmt.Sprintf("modelB\x1fdigest%d", i)); !ok {
			t.Fatal("modelB entry was collaterally invalidated")
		}
	}
	if inv := c.Stats().Invalidations; inv != 10 {
		t.Fatalf("invalidations = %d, want 10", inv)
	}
}

// TestInvalidationDoomsInflight: a flight that was already computing
// when its key prefix is invalidated must broadcast its value to waiters
// but never store it — the value came from the replaced model.
func TestInvalidationDoomsInflight(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	_, f, st := c.Join("m\x1fd")
	if st != Lead {
		t.Fatalf("join state %v, want Lead", st)
	}
	c.InvalidatePrefix("m\x1f")
	c.Complete(f, 99, nil)
	if v, err := f.Result(); err != nil || v != 99 {
		t.Fatalf("flight result %d,%v; want 99,nil broadcast", v, err)
	}
	if _, ok := c.Get("m\x1fd"); ok {
		t.Fatal("invalidated in-flight value was stored")
	}
}
