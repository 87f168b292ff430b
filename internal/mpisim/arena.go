// Pooled run state. A Runtime is reused whole: its memArena (size-classed
// byte buffers for MemObj storage and message payloads, frame free
// lists, and typed region slabs for the Ptr, MemObj, message, receive,
// request and MPI-argument values that live exactly as long as a run)
// and every rank proc it has built, each with its Machine and call
// stack. RunCtx takes a Runtime from one bounded free list shared by
// every program, rebinds its machines to the program being run, and
// scrubs it back onto the list afterwards, so even a compile-and-run-once
// workload (a fresh Program per /analyze request, the dataset evaluation
// harness) executes out of warm memory and warm rank state. A run touches
// its Runtime only from the goroutine that called RunCtx, so no locking
// is needed.
package mpisim

import (
	"fmt"
	"math/bits"

	"mpidetect/internal/region"
)

const (
	minClassBits = 4  // smallest pooled buffer: 16 B
	maxClassBits = 20 // largest pooled buffer: 1 MiB; beyond this, plain make
	numClasses   = maxClassBits + 1

	maxFrameBits    = 12 // largest pooled frame: 4096 slots
	numFrameClasses = maxFrameBits + 1

	chunkLen = 128 // objects per slab chunk

	// maxRunMemory caps the bytes one run's memory objects and message
	// payloads take in total. A program past it crashes with
	// errRunMemory rather than exhausting the host: the largest run of
	// the MBI and CorrBench corpora at 16 ranks takes under 32 KiB.
	maxRunMemory = 64 << 20
)

// errRunMemory is the crash of a run that outgrew maxRunMemory. getBytes
// panics with it and Runtime.step recovers it as the rank's error.
var errRunMemory = &runErr{kind: "crash",
	msg: fmt.Sprintf("simulated memory exceeds %d MiB", maxRunMemory>>20)}

// emptyBytes backs every zero-sized allocation; it is never written.
var emptyBytes = []byte{}

// memArena is the memory half of a pooled Runtime.
type memArena struct {
	bufs [numClasses][][]byte // free byte buffers by size class
	used [][]byte             // every pooled buffer handed out this run

	// frames are pooled by slot-count size class, shared across programs
	// (frames are cleared when returned, so origin does not matter).
	frames [numFrameClasses][][]RV

	ptrs  region.Slab[Ptr]
	mems  region.Slab[MemObj]
	msgs  region.Slab[message]
	rcvs  region.Slab[recvPost]
	reqas region.Slab[request]
	rvs   region.Slab[RV]

	// retained estimates the bytes the pooled buffers and frames keep
	// across runs; see Runtime.recycle.
	retained int
	handed   int // bytes getBytes handed out this run
}

// The free list of runs is a small fixed-capacity channel rather than a
// sync.Pool: pool contents are purged on every GC cycle, which made
// simulation throughput swing with GC timing (rebuilding a run's state
// costs more than a whole small run). The channel keeps at most
// maxFreeRuns Runtimes alive — bounded, deterministic reuse — and
// recycle drops any Runtime whose memory grew past maxRunRetain.
const (
	maxFreeRuns  = 8
	maxRunRetain = 8 << 20 // 8 MiB
)

var freeRuns = make(chan *Runtime, maxFreeRuns)

// takeRuntime takes a Runtime from the free list (or builds one) with at
// least ranks procs, and sets its procs to the first ranks of them.
func takeRuntime(ranks int) *Runtime {
	var rt *Runtime
	select {
	case rt = <-freeRuns:
	default:
		rt = &Runtime{
			reqs:   map[int64]*request{},
			wins:   map[int64]*window{},
			comms:  map[int64]int{},
			dtypes: map[int64]bool{},
		}
	}
	for len(rt.built) < ranks {
		rt.built = append(rt.built, newProc(rt, len(rt.built)))
	}
	rt.procs = rt.built[:ranks]
	return rt
}

// newProc builds rt's proc for rank, with its machine.
func newProc(rt *Runtime, rank int) *proc {
	pr := &proc{rank: rank}
	pr.mach = &Machine{rank: rank, rt: rt, proc: pr}
	return pr
}

// clearSlice zeroes a slice's elements (dropping references) and
// truncates it for reuse.
func clearSlice[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// recycle scrubs the Runtime, so it keeps no reference to the run or the
// program it ran, and puts it back on the free list unless its memory
// (arena, output buffers and collective scratch) outgrew maxRunRetain.
// Only the arena, the built procs, the collective scratch and the
// emptied maps and queues are kept;
// every other field returns to its zero value. The Result returned to
// the caller shares no memory with the Runtime: output and diagnostics
// are copied into strings, and the violations slice, which escaped into
// the Result, is dropped rather than reused.
func (rt *Runtime) recycle() {
	kept := rt.memArena.reset() + rt.retained
	for _, pr := range rt.built {
		pr.reset()
		kept += cap(pr.mach.out)
	}
	for _, s := range rt.colls {
		kept += s.scrub()
	}
	kept += rt.coll.retained()
	clear(rt.reqs)
	clear(rt.wins)
	clear(rt.comms)
	clear(rt.dtypes)
	clear(rt.derivedSizes)
	*rt = Runtime{memArena: rt.memArena, built: rt.built, reqs: rt.reqs,
		wins: rt.wins, comms: rt.comms, dtypes: rt.dtypes,
		derivedSizes: rt.derivedSizes, sends: clearSlice(rt.sends),
		recvs: clearSlice(rt.recvs), colls: rt.colls[:0], coll: rt.coll,
		msgLog: rt.msgLog[:0], wildRecvs: rt.wildRecvs[:0]}
	if kept > maxRunRetain {
		return // oversized: let the GC have it
	}
	select {
	case freeRuns <- rt:
	default:
	}
}

// reset returns every handed-out buffer to its size class, clears the
// slabs and returns the bytes their chunks take.
func (a *memArena) reset() int {
	for _, b := range a.used {
		c := bits.Len(uint(cap(b) - 1))
		a.bufs[c] = append(a.bufs[c], b)
	}
	a.used = a.used[:0]
	a.handed = 0
	return a.ptrs.Reset() + a.mems.Reset() + a.msgs.Reset() +
		a.rcvs.Reset() + a.reqas.Reset() + a.rvs.Reset()
}

// getFrame hands out a zeroed frame of n value slots.
func (a *memArena) getFrame(n int) []RV {
	if n <= 0 {
		return nil // a function with no params and no instructions
	}
	if n > 1<<maxFrameBits {
		return make([]RV, n)
	}
	c := bits.Len(uint(n - 1))
	if fl := a.frames[c]; len(fl) > 0 {
		fr := fl[len(fl)-1]
		a.frames[c] = fl[:len(fl)-1]
		return fr[:n]
	}
	a.retained += (1 << c) * 24
	return make([]RV, n, 1<<c)
}

// putFrame clears a frame to full capacity (so any future, larger
// reslice still reads zeroes) and recycles it.
func (a *memArena) putFrame(fr []RV) {
	if cap(fr) == 0 || cap(fr) > 1<<maxFrameBits {
		return
	}
	fr = fr[:cap(fr)]
	clear(fr)
	a.frames[bits.Len(uint(cap(fr)-1))] = append(a.frames[bits.Len(uint(cap(fr)-1))], fr)
}

// getBytes hands out an n-byte buffer. zero guarantees cleared contents
// (fresh memory semantics); callers that fully overwrite the buffer skip
// the clear.
func (a *memArena) getBytes(n int, zero bool) []byte {
	if n < 0 {
		// Reproduce the pre-arena engine's make([]byte, n) panic exactly:
		// an alloca whose size*count overflows must crash the run, not
		// hand back an empty object and a clean verdict.
		return make([]byte, n)
	}
	if n == 0 {
		return emptyBytes
	}
	if n > maxRunMemory-a.handed {
		panic(errRunMemory)
	}
	a.handed += n
	if n > 1<<maxClassBits {
		return make([]byte, n)
	}
	c := bits.Len(uint(n - 1))
	if c < minClassBits {
		c = minClassBits
	}
	if fl := a.bufs[c]; len(fl) > 0 {
		b := fl[len(fl)-1]
		a.bufs[c] = fl[:len(fl)-1]
		b = b[:n]
		if zero {
			clear(b)
		}
		a.used = append(a.used, b[:cap(b)])
		return b
	}
	a.retained += 1 << c
	b := make([]byte, 1<<c)
	a.used = append(a.used, b)
	return b[:n]
}

// newMemObj allocates one memory object; bytes come zeroed, and the
// pointer shadow map is nil until the first typed-pointer store (most
// objects never pay for it).
func (a *memArena) newMemObj(name string, size, owner int) *MemObj {
	o := &a.mems.Take(1, chunkLen)[0]
	o.Name, o.Bytes, o.Ptrs, o.Owner = name, a.getBytes(size, true), nil, owner
	return o
}

// newPtr bump-allocates a Ptr (GEP results, alloca handles).
func (a *memArena) newPtr(obj *MemObj, off int) *Ptr {
	p := &a.ptrs.Take(1, chunkLen)[0]
	p.Obj, p.Off = obj, off
	return p
}

// newMessage, newRecvPost and newRequest bump-allocate the run-scoped
// MPI bookkeeping objects the point-to-point and collective layers
// create on every operation.
func (a *memArena) newMessage() *message   { return &a.msgs.Take(1, chunkLen)[0] }
func (a *memArena) newRecvPost() *recvPost { return &a.rcvs.Take(1, chunkLen)[0] }
func (a *memArena) newRequest() *request   { return &a.reqas.Take(1, chunkLen)[0] }
