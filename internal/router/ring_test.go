package router

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("digest-%d", i)
	}
	return keys
}

// TestRingDistribution: with enough virtual nodes, ownership across a
// small fleet stays roughly balanced — no backend starves or hogs.
func TestRingDistribution(t *testing.T) {
	backends := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(backends, 0)
	counts := map[string]int{}
	const n = 10000
	for _, k := range ringKeys(n) {
		owner, ok := r.Owner(k)
		if !ok {
			t.Fatal("no owner")
		}
		counts[owner]++
	}
	for _, b := range backends {
		share := float64(counts[b]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("backend %s owns %.1f%% of keys; want a rough quarter (%v)",
				b, share*100, counts)
		}
	}
}

// TestRingMinimalRemap is the property the router buys with consistent
// hashing: removing one backend moves ONLY that backend's keys, each to
// its next replica; every other key keeps its owner.
func TestRingMinimalRemap(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	without := NewRing([]string{"http://a", "http://c"}, 0)
	moved := 0
	for _, k := range ringKeys(5000) {
		before, _ := full.Owner(k)
		after, _ := without.Owner(k)
		if before != "http://b" {
			if after != before {
				t.Fatalf("key %s moved %s -> %s though its owner survived", k, before, after)
			}
			continue
		}
		moved++
		// An orphaned key lands exactly on its next full-ring replica.
		replicas := full.Lookup(k, 2)
		if len(replicas) != 2 || after != replicas[1] {
			t.Fatalf("key %s remapped to %s, want next replica %v", k, after, replicas)
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the removed backend; distribution is broken")
	}
}

// TestRingLookupOrder: Lookup yields distinct members, primary first,
// consistent with Owner, capped by max.
func TestRingLookupOrder(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	for _, k := range ringKeys(100) {
		all := r.Lookup(k, 0)
		if len(all) != 3 {
			t.Fatalf("Lookup(%s, 0) = %v, want all 3", k, all)
		}
		seen := map[string]bool{}
		for _, b := range all {
			if seen[b] {
				t.Fatalf("Lookup(%s) repeats %s: %v", k, b, all)
			}
			seen[b] = true
		}
		owner, _ := r.Owner(k)
		if owner != all[0] {
			t.Fatalf("Owner(%s) = %s but Lookup primary = %s", k, owner, all[0])
		}
		if two := r.Lookup(k, 2); len(two) != 2 || two[0] != all[0] || two[1] != all[1] {
			t.Fatalf("Lookup(%s, 2) = %v, want prefix of %v", k, two, all)
		}
	}
}

// TestRingEmpty: an empty ring answers lookups with nothing, not a
// panic.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if got := r.Lookup("k", 0); len(got) != 0 {
		t.Fatalf("Lookup on empty ring = %v", got)
	}
	if _, ok := r.Owner("k"); ok {
		t.Fatal("Owner on empty ring reported ok")
	}
	if len(r.Members()) != 0 {
		t.Fatalf("Members on empty ring = %v", r.Members())
	}
}

// TestRingStability: the same backend set always builds the same ring —
// a restarted backend reclaims exactly its old keys.
func TestRingStability(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	b := NewRing([]string{"http://c", "http://a", "http://b"}, 0) // order must not matter
	for _, k := range ringKeys(1000) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("key %s owned by %s vs %s across identical rings", k, oa, ob)
		}
	}
}

// TestRingBalancesLoopbackPairs: two backends on neighbouring loopback
// ports — the shape of every local fleet — each own a fair share of the
// keys. The labels of such a pair differ only near their end, and
// hashing them with bare FNV-1a bunched one backend's points into a few
// arcs: over these 200 pairs a backend owned as little as 2.5% of the
// keys.
func TestRingBalancesLoopbackPairs(t *testing.T) {
	keys := ringKeys(4000)
	for port := 40000; port < 40400; port += 2 {
		a := fmt.Sprintf("http://127.0.0.1:%d", port)
		b := fmt.Sprintf("http://127.0.0.1:%d", port+1)
		r := NewRing([]string{a, b}, 0)
		owned := 0
		for _, k := range keys {
			if owner, _ := r.Owner(k); owner == a {
				owned++
			}
		}
		if share := float64(owned) / float64(len(keys)); share < 0.3 || share > 0.7 {
			t.Errorf("%s owns %.1f%% of the keys against %s; want 30–70%%", a, 100*share, b)
		}
	}
}
