package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// recv pops one event or fails after a deadline — Publish never blocks,
// so every expected delivery should already be buffered.
func recv(t *testing.T, s *Subscription) Event {
	t.Helper()
	select {
	case ev, ok := <-s.C():
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("no event within deadline")
	}
	panic("unreachable")
}

func TestPublishDeliversToAllSubscribers(t *testing.T) {
	b := NewBus()
	s1 := b.Subscribe(4)
	s2 := b.Subscribe(4)
	defer s1.Close()
	defer s2.Close()

	pub := b.Publish(ModelReloaded, map[string]string{"model": "m"})
	if pub.Seq == 0 {
		t.Fatal("published event missing sequence number")
	}
	for _, s := range []*Subscription{s1, s2} {
		ev := recv(t, s)
		if ev.Type != ModelReloaded || ev.Seq != pub.Seq {
			t.Fatalf("got %+v, want type %s seq %d", ev, ModelReloaded, pub.Seq)
		}
		if ev.Time.IsZero() {
			t.Fatal("event not timestamped")
		}
	}
	if st := b.Stats(); st.Published != 1 || st.Delivered != 2 || st.Subscribers != 2 {
		t.Fatalf("stats %+v: want 1 published, 2 delivered, 2 subscribers", st)
	}
}

func TestTypeFilter(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4, VerdictCompleted, JobUpdated)
	defer s.Close()

	b.Publish(ModelReloaded, nil) // filtered out
	b.Publish(VerdictCompleted, "v")
	b.Publish(CacheInvalidated, nil) // filtered out
	b.Publish(JobUpdated, "j")

	if ev := recv(t, s); ev.Type != VerdictCompleted {
		t.Fatalf("first event %s, want %s", ev.Type, VerdictCompleted)
	}
	if ev := recv(t, s); ev.Type != JobUpdated {
		t.Fatalf("second event %s, want %s", ev.Type, JobUpdated)
	}
	select {
	case ev := <-s.C():
		t.Fatalf("filter leaked event %+v", ev)
	default:
	}
}

func TestSequenceNumbersAreMonotonic(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(8)
	defer s.Close()
	for i := 0; i < 5; i++ {
		b.Publish(VerdictCompleted, i)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		ev := recv(t, s)
		if ev.Seq <= last {
			t.Fatalf("seq went %d -> %d, want strictly increasing", last, ev.Seq)
		}
		last = ev.Seq
	}
}

// TestSlowSubscriberDropsInsteadOfBlocking is the backpressure contract:
// a full buffer costs the subscriber events, never the publisher time.
func TestSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(2)
	defer s.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			b.Publish(VerdictCompleted, i)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if st := b.Stats(); st.Dropped != 8 || st.Delivered != 2 {
		t.Fatalf("bus stats %+v: want 8 dropped, 2 delivered", st)
	}
	// The two buffered events arrived in order.
	if ev := recv(t, s); ev.Data != 0 {
		t.Fatalf("first buffered event %v, want 0", ev.Data)
	}
	if ev := recv(t, s); ev.Data != 1 {
		t.Fatalf("second buffered event %v, want 1", ev.Data)
	}
}

func TestCloseStopsDeliveryAndIsIdempotent(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4)
	s.Close()
	s.Close() // must not panic
	b.Publish(VerdictCompleted, nil)
	if _, ok := <-s.C(); ok {
		t.Fatal("closed subscription still received an event")
	}
	if st := b.Stats(); st.Subscribers != 0 || st.Delivered != 0 {
		t.Fatalf("stats %+v after close: want 0 subscribers, 0 delivered", st)
	}
}

// TestConcurrentPublishSubscribeClose hammers the bus from many
// goroutines; run under -race (CI does) to prove the fan-out, subscribe,
// and close paths are data-race free.
func TestConcurrentPublishSubscribeClose(t *testing.T) {
	b := NewBus()
	const publishers = 4
	const churners = 4
	const iters = 200

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b.Publish(VerdictCompleted, fmt.Sprintf("p%d-%d", p, i))
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := b.Subscribe(1, VerdictCompleted)
				select {
				case <-s.C():
				default:
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
	if st := b.Stats(); st.Published != publishers*iters {
		t.Fatalf("published %d, want %d", st.Published, publishers*iters)
	}
	if st := b.Stats(); st.Subscribers != 0 {
		t.Fatalf("%d subscribers leaked", st.Subscribers)
	}
}
