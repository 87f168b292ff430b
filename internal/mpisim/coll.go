package mpisim

import (
	"fmt"
	"unsafe"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// collSlot is one in-flight collective operation instance.
type collSlot struct {
	op      mpi.Op
	sig     *mpi.Signature // decodes the members' args
	comm    int64
	done    bool
	members map[int]collMember
	order   []int
	newComm int64 // minted handle for Comm_split/Comm_dup
}

type collMember struct {
	args []RV
}

// joinCollective attaches the calling rank to the matching open collective
// (creating it if absent) and completes the collective when every rank of
// the communicator has arrived.
func (rt *Runtime) joinCollective(p *proc, op mpi.Op, sig *mpi.Signature, comm int64, args []RV) *collSlot {
	var slot *collSlot
	for _, s := range rt.colls {
		if s.done || s.op != op || s.comm != comm {
			continue
		}
		if _, already := s.members[p.rank]; already {
			continue
		}
		slot = s
		break
	}
	if slot == nil {
		slot = rt.newCollSlot(op, sig, comm)
	}
	slot.members[p.rank] = collMember{args: args}
	slot.order = append(slot.order, p.rank)
	if len(slot.members) >= rt.commSize(comm) {
		rt.completeCollective(slot)
	}
	return slot
}

// newCollSlot opens a collective instance at the end of rt.colls. The
// list keeps the slots of earlier runs past its length (recycle scrubs
// them), so a warm run reuses a slot with its members map and order
// slice instead of allocating all three.
func (rt *Runtime) newCollSlot(op mpi.Op, sig *mpi.Signature, comm int64) *collSlot {
	n := len(rt.colls)
	if n < cap(rt.colls) {
		if s := rt.colls[:n+1][n]; s != nil {
			rt.colls = rt.colls[:n+1]
			s.op, s.sig, s.comm = op, sig, comm
			return s
		}
	}
	s := &collSlot{op: op, sig: sig, comm: comm, members: map[int]collMember{}}
	rt.colls = append(rt.colls, s)
	return s
}

// scrub empties a finished run's slot for reuse, dropping every
// reference its members held, and returns the bytes it keeps.
func (s *collSlot) scrub() int {
	kept := int(unsafe.Sizeof(*s)) + cap(s.order)*int(8+unsafe.Sizeof(collMember{}))
	clear(s.members)
	*s = collSlot{members: s.members, order: s.order[:0]}
	return kept
}

func (rt *Runtime) commSize(comm int64) int {
	if s, ok := rt.comms[comm]; ok {
		return s
	}
	return len(rt.procs)
}

// doCollective joins a blocking collective on its communicator: the data
// movers, and Comm_split, Comm_dup and Win_create, whose finish mints
// the new handle.
func (rt *Runtime) doCollective(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	slot := rt.joinCollective(p, op, sig, args[sig.Arg.Comm].I, args)
	return rt.park(p, wait{op: op, slot: slot, sig: sig, args: args})
}

func (rt *Runtime) doICollective(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	ptr := args[sig.Arg.Request].P
	if ptr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null request pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	slot := rt.joinCollective(p, op, sig, args[sig.Arg.Comm].I, args)
	rt.nextReq++
	r := rt.newRequest()
	*r = request{id: rt.nextReq, owner: p.rank, op: op, active: true, coll: slot}
	rt.reqs[r.id] = r
	if err := ptr.Obj.store(ptr.Off, ir.I64, RV{I: r.id}); err != nil {
		return RV{}, err
	}
	return RV{I: mpi.Success}, nil
}

// completeCollective validates argument consistency across the members and
// performs the data movement, then releases every blocked participant.
func (rt *Runtime) completeCollective(s *collSlot) {
	s.done = true
	a := &s.sig.Arg
	ref := s.members[s.order[0]].args
	// Consistency checks against the first arriving rank.
	for _, rank := range s.order[1:] {
		m := s.members[rank].args
		if i := a.Root; i >= 0 && m[i].I != ref[i].I {
			rt.reportOnce(Violation{Kind: VRootMismatch, Rank: rank, Op: s.op,
				Msg: fmt.Sprintf("root %d disagrees with root %d", m[i].I, ref[i].I)})
		}
		if i := a.RedOp; i >= 0 && m[i].I != ref[i].I {
			rt.reportOnce(Violation{Kind: VOpMismatch, Rank: rank, Op: s.op,
				Msg: "reduction operator disagreement"})
		}
		if i := a.Datatype; i >= 0 {
			x, y := mpi.Datatype(m[i].I), mpi.Datatype(ref[i].I)
			if !rt.dtCompatible(x, y) {
				rt.reportOnce(Violation{Kind: VTypeMismatch, Rank: rank, Op: s.op,
					Msg: fmt.Sprintf("datatype %s disagrees with %s", x, y)})
			}
		}
		if i := a.Count; i >= 0 && m[i].I != ref[i].I {
			rt.reportOnce(Violation{Kind: VTypeMismatch, Rank: rank, Op: s.op,
				Msg: fmt.Sprintf("count %d disagrees with %d", m[i].I, ref[i].I)})
		}
	}
	rt.moveCollectiveData(s)
}

// moveCollectiveData implements the data semantics of each collective so
// that simulated programs compute real results.
func (rt *Runtime) moveCollectiveData(s *collSlot) {
	switch s.op {
	case mpi.OpBarrier, mpi.OpIbarrier, mpi.OpCommSplit, mpi.OpCommDup:
		// no data
	case mpi.OpBcast, mpi.OpIbcast:
		rt.bcastData(s)
	case mpi.OpReduce, mpi.OpAllreduce, mpi.OpIallreduce:
		rt.reduceData(s)
	case mpi.OpScan, mpi.OpExscan:
		rt.scanData(s) // divergence from MPI: MPI_Exscan runs this inclusive scan too
	case mpi.OpGather:
		rt.gatherData(s)
	case mpi.OpScatter:
		rt.scatterData(s)
	case mpi.OpAllgather, mpi.OpAlltoall:
		rt.allgatherData(s)
	}
}

// collScratch is the Runtime's scratch for collective data movement:
// the reduction and scan accumulator and the broadcast copy. It lives
// with the pooled Runtime, so it is reused across collectives and runs,
// and it holds no references.
type collScratch struct {
	acc   MemObj // one 8-byte word per element: wide(elem) values
	bytes []byte
}

// fitScratch crashes the rank with errRunMemory, as an alloca past the
// cap does, unless n elements of size bytes of collective scratch fit in
// what the run has left under maxRunMemory. The scratch lives only while
// the collective runs, so the run's total does not grow.
func (rt *Runtime) fitScratch(n, size int) {
	if n > (maxRunMemory-rt.handed)/size {
		panic(errRunMemory)
	}
}

// accumulator returns the scratch accumulator cleared to n zero words.
func (rt *Runtime) accumulator(n int) *MemObj {
	rt.fitScratch(n, 8)
	acc := &rt.coll.acc
	if cap(acc.Bytes) < 8*n {
		acc.Bytes = make([]byte, 8*n)
	}
	acc.Bytes = acc.Bytes[:8*n]
	clear(acc.Bytes)
	return acc
}

// wide is the accumulator word type for elements of type elem: reductions
// of i32 elements accumulate in 64 bits and store the low 32.
func wide(elem *ir.Type) *ir.Type {
	if elem == ir.I32 {
		return ir.I64
	}
	return elem
}

// reduceRV folds b into a under op: as ints for ir.I32 elements, as
// floats otherwise.
func reduceRV(op mpi.ReduceOp, elem *ir.Type, a, b RV) RV {
	if elem == ir.I32 {
		return RV{I: reduceInt(op, a.I, b.I)}
	}
	return RV{F: reduceFloat(op, a.F, b.F)}
}

// copyOf returns a scratch copy of b.
func (rt *Runtime) copyOf(b []byte) []byte {
	rt.fitScratch(len(b), 1)
	c := &rt.coll
	if cap(c.bytes) < len(b) {
		c.bytes = make([]byte, len(b))
	}
	return append(c.bytes[:0], b...)
}

// retained is the bytes the scratch keeps across runs.
func (c *collScratch) retained() int {
	return cap(c.acc.Bytes) + cap(c.bytes)
}

// elemsHeld bounds a collective's count-driven loop over p, whose
// elements are size bytes apart: past the first elemsHeld(p, size,
// count) of the count elements every access falls outside p's object,
// so a load reads nothing and a store writes nothing. With size 0 every
// element is the same bytes and the first stands for all of them. A nil
// p holds none.
func elemsHeld(p *Ptr, size, count int) int {
	if p == nil {
		return 0
	}
	n := 0
	switch {
	case size > 0:
		n = max(0, len(p.Obj.Bytes)-p.Off) / size
	case size == 0:
		n = 1
	case p.Off >= 0: // size < 0: the offsets fall from p.Off
		n = p.Off/-size + 1
	}
	return min(n, count)
}

func (rt *Runtime) bcastData(s *collSlot) {
	a := &s.sig.Arg
	root := int(s.members[s.order[0]].args[a.Root].I)
	rm, ok := s.members[root]
	if !ok {
		return
	}
	src := rm.args[a.Buf].P
	if src == nil {
		return
	}
	n := int(rm.args[a.Count].I) * rt.moving(mpi.Datatype(rm.args[a.Datatype].I)).size
	n = clampLen(src, n)
	data := rt.copyOf(src.Obj.Bytes[src.Off : src.Off+n])
	for rank, m := range s.members {
		if rank == root {
			continue
		}
		dst := m.args[a.Buf].P
		if dst == nil {
			continue
		}
		k := clampLen(dst, n)
		copy(dst.Obj.Bytes[dst.Off:dst.Off+k], data[:k])
	}
}

// reduceData implements Reduce, Allreduce and Iallreduce: to the root's
// receive buffer for a row with a root, to every member's otherwise. The
// accumulator covers the elements the members' buffers hold: an element
// past every send buffer but inside a receive buffer stays zero, and the
// loops never run past what any buffer holds, whatever the count.
func (rt *Runtime) reduceData(s *collSlot) {
	a := &s.sig.Arg
	ref := s.members[s.order[0]].args
	count := int(ref[a.Count].I)
	dt := mpi.Datatype(ref[a.Datatype].I)
	op := mpi.ReduceOp(ref[a.RedOp].I)
	if count <= 0 {
		return
	}
	// The descriptor is looked up (reporting an unknown datatype) only
	// when some buffer is moved.
	var d dtype
	sized, n := false, 0
	hold := func(p *Ptr) {
		if p == nil {
			return
		}
		if !sized {
			d, sized = rt.moving(dt), true
		}
		n = max(n, elemsHeld(p, d.size, count))
	}
	for _, rank := range s.order {
		hold(s.members[rank].args[a.Buf].P)
	}
	all := a.Root < 0
	var rm collMember
	hasRoot := false
	if all {
		for _, m := range s.members {
			hold(m.args[a.RecvBuf].P)
		}
	} else if rm, hasRoot = s.members[int(ref[a.Root].I)]; hasRoot {
		hold(rm.args[a.RecvBuf].P)
	}
	if n == 0 {
		return
	}
	acc, sz, elem := rt.accumulator(n), d.size, d.elem
	word := wide(elem)
	first := true
	for _, rank := range s.order {
		src := s.members[rank].args[a.Buf].P
		if src == nil {
			continue
		}
		for i := 0; i < n; i++ {
			off := src.Off + i*sz
			if off+sz > len(src.Obj.Bytes) {
				break
			}
			v, _ := src.Obj.load(off, elem)
			if !first {
				w, _ := acc.load(8*i, word)
				v = reduceRV(op, elem, w, v)
			}
			_ = acc.store(8*i, word, v)
		}
		first = false
	}
	write := func(m collMember) {
		dst := m.args[a.RecvBuf].P
		if dst == nil {
			return
		}
		for i := 0; i < n; i++ {
			off := dst.Off + i*sz
			if off+sz > len(dst.Obj.Bytes) {
				break
			}
			w, _ := acc.load(8*i, word)
			_ = dst.Obj.store(off, elem, w)
		}
	}
	if all {
		for _, m := range s.members {
			write(m)
		}
		return
	}
	if hasRoot {
		write(rm)
	}
}

// scanData implements inclusive scan with MPI_SUM semantics (the only op
// the generators use with Scan), with reduceData's bounds on the
// accumulator and loops.
func (rt *Runtime) scanData(s *collSlot) {
	a := &s.sig.Arg
	ref := s.members[s.order[0]].args
	count := int(ref[a.Count].I)
	if count <= 0 {
		// A negative count crashes the completing rank with makeslice's
		// panic, as it did when the accumulators were sized by count.
		_ = make([]int64, count)
		return
	}
	dt := mpi.Datatype(ref[a.Datatype].I)
	// Every member in rank order looks up the descriptor (reporting an
	// unknown datatype), whether or not it passed a buffer.
	var d dtype
	n := 0
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		if m, ok := s.members[rank]; ok {
			d = rt.moving(dt)
			n = max(n, elemsHeld(m.args[a.Buf].P, d.size, count), elemsHeld(m.args[a.RecvBuf].P, d.size, count))
		}
	}
	if n == 0 {
		return
	}
	elem := d.elem
	if dt == mpi.DTUnsigned {
		elem = ir.F64 // divergence from MPI: Scan reads MPI_UNSIGNED as float; Reduce reads it as int
	}
	acc, sz, word := rt.accumulator(n), d.size, wide(elem)
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		m, ok := s.members[rank]
		if !ok {
			continue
		}
		src, dst := m.args[a.Buf].P, m.args[a.RecvBuf].P
		for i := 0; i < n; i++ {
			if src != nil && src.Off+(i+1)*sz <= len(src.Obj.Bytes) {
				v, _ := src.Obj.load(src.Off+i*sz, elem)
				w, _ := acc.load(8*i, word)
				_ = acc.store(8*i, word, reduceRV(mpi.ROSum, elem, w, v))
			}
			if dst != nil && dst.Off+(i+1)*sz <= len(dst.Obj.Bytes) {
				w, _ := acc.load(8*i, word)
				_ = dst.Obj.store(dst.Off+i*sz, elem, w)
			}
		}
	}
}

func (rt *Runtime) gatherData(s *collSlot) {
	a := &s.sig.Arg
	root := int(s.members[s.order[0]].args[a.Root].I)
	rm, ok := s.members[root]
	if !ok {
		return
	}
	dst := rm.args[a.RecvBuf].P
	if dst == nil {
		return
	}
	per := int(rm.args[a.RecvCount].I) * rt.moving(mpi.Datatype(rm.args[a.RecvDatatype].I)).size
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		m, ok := s.members[rank]
		if !ok {
			continue
		}
		src := m.args[a.Buf].P
		if src == nil {
			continue
		}
		n := int(m.args[a.Count].I) * rt.moving(mpi.Datatype(m.args[a.Datatype].I)).size
		n = clampLen(src, n)
		dOff := dst.Off + rank*per
		if dOff+n > len(dst.Obj.Bytes) {
			n = len(dst.Obj.Bytes) - dOff
		}
		if n > 0 {
			copy(dst.Obj.Bytes[dOff:dOff+n], src.Obj.Bytes[src.Off:src.Off+n])
		}
	}
}

func (rt *Runtime) scatterData(s *collSlot) {
	a := &s.sig.Arg
	root := int(s.members[s.order[0]].args[a.Root].I)
	rm, ok := s.members[root]
	if !ok {
		return
	}
	src := rm.args[a.Buf].P
	if src == nil {
		return
	}
	per := int(rm.args[a.Count].I) * rt.moving(mpi.Datatype(rm.args[a.Datatype].I)).size
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		m, ok := s.members[rank]
		if !ok {
			continue
		}
		dst := m.args[a.RecvBuf].P
		if dst == nil {
			continue
		}
		sOff := src.Off + rank*per
		n := per
		if sOff+n > len(src.Obj.Bytes) {
			n = len(src.Obj.Bytes) - sOff
		}
		n = clampLen(dst, n)
		if n > 0 {
			copy(dst.Obj.Bytes[dst.Off:dst.Off+n], src.Obj.Bytes[sOff:sOff+n])
		}
	}
}

func (rt *Runtime) allgatherData(s *collSlot) {
	a := &s.sig.Arg
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		sm, ok := s.members[rank]
		if !ok {
			continue
		}
		src := sm.args[a.Buf].P
		if src == nil {
			continue
		}
		n := int(sm.args[a.Count].I) * rt.moving(mpi.Datatype(sm.args[a.Datatype].I)).size
		n = clampLen(src, n)
		for _, m := range s.members {
			dst := m.args[a.RecvBuf].P
			if dst == nil {
				continue
			}
			dOff := dst.Off + rank*n
			k := n
			if dOff+k > len(dst.Obj.Bytes) {
				k = len(dst.Obj.Bytes) - dOff
			}
			if k > 0 {
				copy(dst.Obj.Bytes[dOff:dOff+k], src.Obj.Bytes[src.Off:src.Off+k])
			}
		}
	}
}

func clampLen(p *Ptr, n int) int {
	if n < 0 {
		return 0
	}
	if p.Off+n > len(p.Obj.Bytes) {
		n = len(p.Obj.Bytes) - p.Off
	}
	if n < 0 {
		return 0
	}
	return n
}

func reduceInt(op mpi.ReduceOp, a, b int64) int64 {
	switch op {
	case mpi.ROSum:
		return a + b
	case mpi.ROProd:
		return a * b
	case mpi.ROMax:
		if a > b {
			return a
		}
		return b
	case mpi.ROMin:
		if a < b {
			return a
		}
		return b
	case mpi.ROLand:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case mpi.ROBor:
		return a | b
	}
	return a + b
}

func reduceFloat(op mpi.ReduceOp, a, b float64) float64 {
	switch op {
	case mpi.ROSum:
		return a + b
	case mpi.ROProd:
		return a * b
	case mpi.ROMax:
		if a > b {
			return a
		}
		return b
	case mpi.ROMin:
		if a < b {
			return a
		}
		return b
	}
	return a + b
}

// commCreated finishes Comm_split/Comm_dup once every rank has joined:
// the communicator it mints has the size of the one split or duplicated.
func (rt *Runtime) commCreated(p *proc, w *wait) (RV, error) {
	slot, a := w.slot, &w.sig.Arg
	// The first rank out mints the handle.
	if slot.newComm == 0 {
		rt.nextComm++
		slot.newComm = rt.nextComm
		rt.comms[slot.newComm] = rt.commSize(w.args[a.Comm].I)
	}
	if ptr := w.args[a.Out].P; ptr != nil {
		if err := ptr.Obj.store(ptr.Off, ir.I32, RV{I: slot.newComm}); err != nil {
			return RV{}, err
		}
		p.ownedComms = append(p.ownedComms, slot.newComm)
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doCommFree(p *proc, sig *mpi.Signature, args []RV) (RV, error) {
	ptr := args[sig.Arg.Out].P
	if ptr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpCommFree, Msg: "null comm pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	hv, err := ptr.Obj.load(ptr.Off, ir.I32)
	if err != nil {
		return RV{}, err
	}
	if hv.I == mpi.CommWorld || hv.I == mpi.CommSelf {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpCommFree,
			Msg: "freeing a built-in communicator"})
		return RV{I: mpi.ErrOther}, nil
	}
	for i, c := range p.ownedComms {
		if c == hv.I {
			p.ownedComms = append(p.ownedComms[:i], p.ownedComms[i+1:]...)
			break
		}
	}
	_ = ptr.Obj.store(ptr.Off, ir.I32, RV{I: mpi.CommNull})
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doTypeContiguous(p *proc, sig *mpi.Signature, args []RV) (RV, error) {
	count := int(args[sig.Arg.Count].I)
	base := mpi.Datatype(args[sig.Arg.Datatype].I)
	outp := args[sig.Arg.Out].P
	if outp == nil || count <= 0 {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpTypeContiguous,
			Msg: "invalid count or null newtype"})
		return RV{I: mpi.ErrOther}, nil
	}
	rt.nextType++
	id := rt.nextType
	rt.derived[id] = derivedType{size: count * rt.moving(base).size}
	if err := outp.Obj.store(outp.Off, ir.I32, RV{I: id}); err != nil {
		return RV{}, err
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doTypeCommitFree(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	ptr := args[sig.Arg.Datatype].P
	if ptr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null datatype pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	hv, err := ptr.Obj.load(ptr.Off, ir.I32)
	if err != nil {
		return RV{}, err
	}
	t, ok := rt.derived[hv.I]
	if !ok || t.freed {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("%s on a non-derived datatype %d", op, hv.I)})
		return RV{I: mpi.ErrOther}, nil
	}
	if op == mpi.OpTypeCommit {
		t.committed = true
	} else {
		t.freed = true
		_ = ptr.Obj.store(ptr.Off, ir.I32, RV{I: int64(mpi.DTNull)})
	}
	rt.derived[hv.I] = t
	return RV{I: mpi.Success}, nil
}
