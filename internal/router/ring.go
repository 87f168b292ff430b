// Consistent hashing for the digest-sharded router. Each backend owns
// many pseudo-random points (virtual nodes) on a 64-bit hash circle; a
// program's shard key — its routing digest — hashes to a point on the
// same circle and is owned by the first backend point at or after it.
//
// The property the router buys with this (over, say, key mod N) is
// minimal remapping: ejecting one backend moves only the keys that
// backend owned, each to its next surviving replica, while every other
// key keeps its owner — so the surviving backends' content-addressed
// caches and durable stores stay hot through a failure. Re-admission is
// symmetric: the returning backend reclaims exactly its old points (the
// ring is rebuilt from the same names), so its warm store lines up with
// the keys that come back to it.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultReplicas is the virtual-node count per backend. With 128 points
// each, either backend of a pair on neighbouring loopback ports owns
// 41–62% of the keys over the 200 pairs TestRingBalancesLoopbackPairs
// tries, at a ring size (N*128 points) that is still trivially
// binary-searchable.
const defaultReplicas = 128

// hashKey positions a shard key (or virtual node label) on the circle:
// FNV-1a, then murmur3's 64-bit finalizer. Bare FNV-1a barely carries
// a key's last byte into the top hash bits, so the labels name#0 …
// name#127 of one backend landed in a few bunches on the circle.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Ring is an immutable consistent-hash ring over a set of backend
// names. The router rebuilds a fresh Ring on every membership change
// and swaps it atomically; lookups never lock.
type Ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct members, sorted
}

type ringPoint struct {
	hash  uint64
	owner int // index into names
}

// NewRing builds a ring over the given backends with `replicas` virtual
// nodes each (<=0 takes defaultReplicas). An empty backend set yields a
// usable ring whose lookups return nothing.
func NewRing(backends []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	names := append([]string(nil), backends...)
	sort.Strings(names)
	r := &Ring{names: names, points: make([]ringPoint, 0, len(names)*replicas)}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(name + "#" + strconv.Itoa(v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Members returns the ring's distinct backend names, sorted.
func (r *Ring) Members() []string { return r.names }

// Lookup walks the circle clockwise from key's position and returns up
// to max distinct backends in ownership order: element 0 is the key's
// primary, element 1 the replica the key remaps to if the primary is
// ejected, and so on. max <= 0 means every member.
func (r *Ring) Lookup(key string, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if max <= 0 || max > len(r.names) {
		max = len(r.names)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, max)
	seen := make(map[int]struct{}, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.owner]; dup {
			continue
		}
		seen[p.owner] = struct{}{}
		out = append(out, r.names[p.owner])
	}
	return out
}

// Owner is Lookup's primary only.
func (r *Ring) Owner(key string) (string, bool) {
	owners := r.Lookup(key, 1)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}
