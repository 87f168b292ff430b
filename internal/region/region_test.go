package region

import (
	"testing"
	"unsafe"
)

// TestSlabRuns pins what a Slab hands out: runs of len == cap == n that
// never overlap, a request larger than the chunk size in a chunk of its
// own, and List's nil for zero.
func TestSlabRuns(t *testing.T) {
	var s Slab[int64]
	sizes := []int{1, 3, 8, 5, 20, 2, 8, 1}
	var runs [][]int64
	for i, n := range sizes {
		r := s.Take(n, 8)
		if len(r) != n || cap(r) != n {
			t.Fatalf("Take(%d): len %d cap %d, want both %d", n, len(r), cap(r), n)
		}
		for j := range r {
			r[j] = int64(i + 1)
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		for _, v := range r {
			if v != int64(i+1) {
				t.Fatalf("run %d was overwritten by a later run: %v", i, r)
			}
		}
	}
	if l := s.List(0, 8); l != nil {
		t.Fatalf("List(0) = %v, want nil", l)
	}
	handed := 0
	for c := range s.HandedOut {
		handed += len(c)
	}
	// Chunks of 8 hold [1 3], [8], [5], [2], [8] and [1]; the 20 has its
	// own. Every chunk before the one being carved is yielded whole,
	// spare tail included, and that one up to what it handed out.
	if want := 8 + 8 + 8 + 20 + 8 + 8 + 1; handed != want {
		t.Fatalf("HandedOut covers %d elements, want %d", handed, want)
	}
}

// TestSlabResetZeroesAndReuses pins Reset: it reports the bytes of every
// chunk kept (an oversized one included), and the runs handed out after
// it are zeroed and come from the kept chunks, so a second pass of the
// same requests allocates nothing.
func TestSlabResetZeroesAndReuses(t *testing.T) {
	var s Slab[[2]int32]
	pass := func() {
		for _, n := range []int{4, 4, 16, 3} {
			r := s.Take(n, 8)
			for j := range r {
				if r[j] != [2]int32{} {
					t.Fatalf("Take(%d) handed out a dirty element %v", n, r[j])
				}
				r[j] = [2]int32{-1, -1}
			}
		}
	}
	pass()
	elem := int(unsafe.Sizeof([2]int32{}))
	// Chunks: 8 (4+4), 16 (the oversized request), 8 (3).
	if got, want := s.Reset(), (8+16+8)*elem; got != want {
		t.Fatalf("Reset reports %d bytes, want %d", got, want)
	}
	if a := testing.AllocsPerRun(10, func() { pass(); s.Reset() }); a != 0 {
		t.Fatalf("a repeated pass allocates %.0f times, want 0", a)
	}
	for c := range s.HandedOut {
		if len(c) != 0 {
			t.Fatalf("HandedOut after Reset yields %d elements", len(c))
		}
	}
}

// TestSlabResetDropsReferences pins that Reset clears the pointers the
// handed-out elements hold, so a kept chunk pins nothing of the last
// region.
func TestSlabResetDropsReferences(t *testing.T) {
	var s Slab[*int]
	x := new(int)
	r := s.Take(3, 4)
	r[2] = x
	s.Reset()
	if r[2] != nil {
		t.Fatal("Reset left a reference in a handed-out element")
	}
}
