package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type inner struct {
	Hits  int64
	Label string
}

type live struct {
	Requests int64
	Wait     time.Duration // an int64 kind: a counter too
	Nested   inner
	Mode     string
	Workers  int
}

// TestSnapshotCopiesCounters: every int64 field, nested ones included,
// is copied; every other field comes back zero.
func TestSnapshotCopiesCounters(t *testing.T) {
	l := live{Requests: 3, Wait: 4, Nested: inner{Hits: 5, Label: "x"}, Mode: "ok", Workers: 6}
	got := Snapshot(&l)
	want := live{Requests: 3, Wait: 4, Nested: inner{Hits: 5}}
	if got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}

// TestSnapshotUnderConcurrentAdds: Snapshot reads atomically while
// other goroutines add (the -race run is the assertion), and a counter
// never reads above its final value.
func TestSnapshotUnderConcurrentAdds(t *testing.T) {
	var l live
	const adders, adds = 4, 1000
	var wg sync.WaitGroup
	for range adders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range adds {
				atomic.AddInt64(&l.Requests, 1)
				atomic.AddInt64(&l.Nested.Hits, 1)
			}
		}()
	}
	for range 100 {
		if s := Snapshot(&l); s.Requests > adders*adds || s.Nested.Hits > adders*adds {
			t.Fatalf("snapshot past the final count: %+v", s)
		}
	}
	wg.Wait()
	if s := Snapshot(&l); s.Requests != adders*adds || s.Nested.Hits != adders*adds {
		t.Fatalf("final snapshot %+v, want %d each", s, adders*adds)
	}
}

// TestFold: the first sample seeds the average, later ones blend in with
// weight alpha.
func TestFold(t *testing.T) {
	var avg int64
	Fold(&avg, 100, 0.3)
	if avg != 100 {
		t.Fatalf("seeded average = %d, want 100", avg)
	}
	Fold(&avg, 200, 0.3)
	if avg != 130 {
		t.Fatalf("average after 200 = %d, want 130", avg)
	}
}
