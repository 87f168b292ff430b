package store

// Test-only API: production code does not call it.

// Get serves key from the log: one positioned read plus a CRC check, so
// a flipped bit on disk surfaces as a miss, never as a wrong payload.
func (s *Store) Get(key string) (val []byte, gen uint64, ok bool) {
	val, gen, _, ok = getInto(s, key, nil)
	return val, gen, ok
}
