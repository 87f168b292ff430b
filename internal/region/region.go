// Package region is the typed bump allocator behind the repo's
// request- and run-scoped memory: a parsed IR module's nodes, a
// simulated run's pointers, memory objects, messages, receives, requests
// and MPI argument vectors, and a tape's argmax indices. Each owner keeps
// one Slab per element type, carves runs of elements from it for the
// life of one region (a module, a run, a pass) and resets it when the
// region ends. This is region allocation (Hanson, SP&E 1990).
package region

import "unsafe"

// Slab is a typed bump allocator over a list of chunks. It hands out
// zeroed, exact-capacity runs of elements, so an append by a caller
// copies out instead of stomping a neighbour. The chunks are kept across
// reuses: Reset clears what was handed out and starts over from the
// first chunk. The zero value is an empty slab.
type Slab[T any] struct {
	chunks [][]T // every chunk, each at full length
	cur    int   // chunks[cur] is being carved
	used   int   // elements of chunks[cur] handed out
}

// Take returns n zeroed elements with len == cap == n. size is the chunk
// length for a new chunk; a request larger than size gets a chunk of its
// own length.
func (s *Slab[T]) Take(n, size int) []T {
	if s.cur == len(s.chunks) || s.used+n > len(s.chunks[s.cur]) {
		s.advance(n, size)
	}
	out := s.chunks[s.cur][s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// List is Take for a list, which is nil when n is zero.
func (s *Slab[T]) List(n, size int) []T {
	if n == 0 {
		return nil
	}
	return s.Take(n, size)
}

// advance moves to the next chunk with room for n elements, making one
// when the next kept chunk is too small (or there is none).
func (s *Slab[T]) advance(n, size int) {
	if s.cur < len(s.chunks) {
		s.cur++
	}
	s.used = 0
	if s.cur < len(s.chunks) && len(s.chunks[s.cur]) >= n {
		return
	}
	s.chunks = append(s.chunks, nil)
	copy(s.chunks[s.cur+1:], s.chunks[s.cur:])
	s.chunks[s.cur] = make([]T, max(size, n))
}

// HandedOut yields, chunk by chunk, every element handed out since the
// last Reset.
func (s *Slab[T]) HandedOut(yield func([]T) bool) {
	for i := 0; i <= s.cur && i < len(s.chunks); i++ {
		c := s.chunks[i]
		if i == s.cur {
			c = c[:s.used]
		}
		if !yield(c) {
			return
		}
	}
}

// Reset clears every element handed out, dropping the references they
// hold, rewinds to the first chunk and returns the bytes the chunks take.
func (s *Slab[T]) Reset() int {
	for c := range s.HandedOut {
		clear(c)
	}
	var zero T
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	s.cur, s.used = 0, 0
	return n * int(unsafe.Sizeof(zero))
}
