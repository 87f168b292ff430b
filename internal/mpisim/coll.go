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
func (rt *Runtime) joinCollective(p *proc, op mpi.Op, comm int64, args []RV) *collSlot {
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
		slot = rt.newCollSlot(op, comm)
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
func (rt *Runtime) newCollSlot(op mpi.Op, comm int64) *collSlot {
	n := len(rt.colls)
	if n < cap(rt.colls) {
		if s := rt.colls[:n+1][n]; s != nil {
			rt.colls = rt.colls[:n+1]
			s.op, s.comm = op, comm
			return s
		}
	}
	s := &collSlot{op: op, comm: comm, members: map[int]collMember{}}
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

func (rt *Runtime) doCollective(p *proc, op mpi.Op, args []RV) (RV, error) {
	sig, _ := mpi.SignatureOf(op)
	comm := int64(mpi.CommWorld)
	if sig.Arg.Comm >= 0 && sig.Arg.Comm < len(args) {
		comm = args[sig.Arg.Comm].I
	}
	return rt.park(p, wait{op: op, slot: rt.joinCollective(p, op, comm, args)})
}

func (rt *Runtime) doICollective(p *proc, op mpi.Op, args []RV) (RV, error) {
	sig, _ := mpi.SignatureOf(op)
	comm := int64(mpi.CommWorld)
	if sig.Arg.Comm >= 0 && sig.Arg.Comm < len(args) {
		comm = args[sig.Arg.Comm].I
	}
	reqIdx := sig.Arg.Request
	if reqIdx < 0 || reqIdx >= len(args) || args[reqIdx].P == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null request pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	slot := rt.joinCollective(p, op, comm, args)
	rt.nextReq++
	r := rt.newRequest()
	*r = request{id: rt.nextReq, owner: p.rank, op: op, active: true, coll: slot}
	rt.reqs[r.id] = r
	ptr := args[reqIdx].P
	if err := ptr.Obj.store(ptr.Off, ir.I64, RV{I: r.id}); err != nil {
		return RV{}, err
	}
	return RV{I: mpi.Success}, nil
}

// completeCollective validates argument consistency across the members and
// performs the data movement, then releases every blocked participant.
func (rt *Runtime) completeCollective(s *collSlot) {
	s.done = true
	sig, _ := mpi.SignatureOf(s.op)
	ref := s.members[s.order[0]]

	argInt := func(m collMember, idx int) int64 {
		if idx < 0 || idx >= len(m.args) {
			return 0
		}
		return m.args[idx].I
	}
	// Consistency checks against the first arriving rank.
	for _, rank := range s.order[1:] {
		m := s.members[rank]
		if sig.Arg.Root >= 0 && argInt(m, sig.Arg.Root) != argInt(ref, sig.Arg.Root) {
			rt.reportOnce(Violation{Kind: VRootMismatch, Rank: rank, Op: s.op,
				Msg: fmt.Sprintf("root %d disagrees with root %d", argInt(m, sig.Arg.Root), argInt(ref, sig.Arg.Root))})
		}
		if sig.Arg.RedOp >= 0 && argInt(m, sig.Arg.RedOp) != argInt(ref, sig.Arg.RedOp) {
			rt.reportOnce(Violation{Kind: VOpMismatch, Rank: rank, Op: s.op,
				Msg: "reduction operator disagreement"})
		}
		if sig.Arg.Datatype >= 0 {
			a := mpi.Datatype(argInt(m, sig.Arg.Datatype))
			b := mpi.Datatype(argInt(ref, sig.Arg.Datatype))
			if !rt.dtCompatible(a, b) {
				rt.reportOnce(Violation{Kind: VTypeMismatch, Rank: rank, Op: s.op,
					Msg: fmt.Sprintf("datatype %s disagrees with %s", a, b)})
			}
		}
		if sig.Arg.Count >= 0 && argInt(m, sig.Arg.Count) != argInt(ref, sig.Arg.Count) {
			rt.reportOnce(Violation{Kind: VTypeMismatch, Rank: rank, Op: s.op,
				Msg: fmt.Sprintf("count %d disagrees with %d", argInt(m, sig.Arg.Count), argInt(ref, sig.Arg.Count))})
		}
	}
	rt.moveCollectiveData(s)
}

// bufOf returns the idx-th argument as a pointer.
func bufOf(m collMember, idx int) *Ptr {
	if idx < 0 || idx >= len(m.args) {
		return nil
	}
	return m.args[idx].P
}

// moveCollectiveData implements the data semantics of each collective so
// that simulated programs compute real results.
func (rt *Runtime) moveCollectiveData(s *collSlot) {
	switch s.op {
	case mpi.OpBarrier, mpi.OpIbarrier, mpi.OpCommSplit, mpi.OpCommDup:
		// no data
	case mpi.OpBcast, mpi.OpIbcast:
		rt.bcastData(s, 0, 1, 2, 3)
	case mpi.OpReduce:
		rt.reduceData(s, 0, 1, 2, 3, 4, 5, false)
	case mpi.OpAllreduce, mpi.OpIallreduce:
		rt.reduceData(s, 0, 1, 2, 3, 4, -1, true)
	case mpi.OpScan, mpi.OpExscan:
		rt.scanData(s)
	case mpi.OpGather:
		rt.gatherData(s)
	case mpi.OpScatter:
		rt.scatterData(s)
	case mpi.OpAllgather, mpi.OpAlltoall:
		rt.allgatherData(s)
	}
}

// collScratch is the Runtime's scratch for collective data movement:
// the reduction and scan accumulators and the broadcast copy. It lives
// with the pooled Runtime, so it is reused across collectives and runs,
// and it holds no references.
type collScratch struct {
	accI  []int64
	accF  []float64
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

// accumulators returns a zeroed accumulator of n elements: ints when
// isInt, floats otherwise, and nil for the kind the datatype does not
// use.
func (rt *Runtime) accumulators(n int, isInt bool) ([]int64, []float64) {
	rt.fitScratch(n, 8)
	c := &rt.coll
	if isInt {
		if cap(c.accI) < n {
			c.accI = make([]int64, n)
		}
		acc := c.accI[:n]
		clear(acc)
		return acc, nil
	}
	if cap(c.accF) < n {
		c.accF = make([]float64, n)
	}
	acc := c.accF[:n]
	clear(acc)
	return nil, acc
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
	return 8*(cap(c.accI)+cap(c.accF)) + cap(c.bytes)
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

func (rt *Runtime) bcastData(s *collSlot, bufIdx, countIdx, dtIdx, rootIdx int) {
	ref := s.members[s.order[0]]
	root := int(ref.args[rootIdx].I)
	rm, ok := s.members[root]
	if !ok {
		return
	}
	src := bufOf(rm, bufIdx)
	if src == nil {
		return
	}
	n := int(rm.args[countIdx].I) * rt.dtSize(mpi.Datatype(rm.args[dtIdx].I))
	n = clampLen(src, n)
	data := rt.copyOf(src.Obj.Bytes[src.Off : src.Off+n])
	for rank, m := range s.members {
		if rank == root {
			continue
		}
		dst := bufOf(m, bufIdx)
		if dst == nil {
			continue
		}
		k := clampLen(dst, n)
		copy(dst.Obj.Bytes[dst.Off:dst.Off+k], data[:k])
	}
}

// reduceData implements Reduce/Allreduce for MPI_INT and MPI_DOUBLE. The
// accumulators cover the elements the members' buffers hold: an element
// past every send buffer but inside a receive buffer stays zero, and the
// loops never run past what any buffer holds, whatever the count.
func (rt *Runtime) reduceData(s *collSlot, sIdx, rIdx, cIdx, dtIdx, opIdx, rootIdx int, all bool) {
	ref := s.members[s.order[0]]
	count := int(ref.args[cIdx].I)
	dt := mpi.Datatype(ref.args[dtIdx].I)
	op := mpi.ReduceOp(ref.args[opIdx].I)
	if count <= 0 {
		return
	}
	isInt := dt == mpi.DTInt || dt == mpi.DTLong || dt == mpi.DTUnsigned
	// The element size is looked up (reporting an unknown datatype) only
	// when some buffer is moved.
	sz, sized, n := 0, false, 0
	hold := func(p *Ptr) {
		if p == nil {
			return
		}
		if !sized {
			sz, sized = rt.dtSize(dt), true
		}
		n = max(n, elemsHeld(p, sz, count))
	}
	for _, rank := range s.order {
		hold(bufOf(s.members[rank], sIdx))
	}
	var rm collMember
	hasRoot := false
	if all {
		for _, m := range s.members {
			hold(bufOf(m, rIdx))
		}
	} else if rm, hasRoot = s.members[int(ref.args[rootIdx].I)]; hasRoot {
		hold(bufOf(rm, rIdx))
	}
	if n == 0 {
		return
	}
	accI, accF := rt.accumulators(n, isInt)
	first := true
	for _, rank := range s.order {
		m := s.members[rank]
		src := bufOf(m, sIdx)
		if src == nil {
			continue
		}
		for i := 0; i < n; i++ {
			off := src.Off + i*sz
			if off+sz > len(src.Obj.Bytes) {
				break
			}
			switch {
			case isInt && first:
				rv, _ := src.Obj.load(off, ir.I32)
				accI[i] = rv.I
			case isInt:
				rv, _ := src.Obj.load(off, ir.I32)
				accI[i] = reduceInt(op, accI[i], rv.I)
			case first:
				rv, _ := src.Obj.load(off, ir.F64)
				accF[i] = rv.F
			default:
				rv, _ := src.Obj.load(off, ir.F64)
				accF[i] = reduceFloat(op, accF[i], rv.F)
			}
		}
		first = false
	}
	write := func(m collMember) {
		dst := bufOf(m, rIdx)
		if dst == nil {
			return
		}
		for i := 0; i < n; i++ {
			off := dst.Off + i*sz
			if off+sz > len(dst.Obj.Bytes) {
				break
			}
			if isInt {
				_ = dst.Obj.store(off, ir.I32, RV{I: accI[i]})
			} else {
				_ = dst.Obj.store(off, ir.F64, RV{F: accF[i]})
			}
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
// accumulators and loops.
func (rt *Runtime) scanData(s *collSlot) {
	ref := s.members[s.order[0]]
	count := int(ref.args[2].I)
	dt := mpi.Datatype(ref.args[3].I)
	isInt := dt == mpi.DTInt || dt == mpi.DTLong
	if count <= 0 {
		// A negative count crashes the completing rank with makeslice's
		// panic, as it did when the accumulators were sized by count.
		_ = make([]int64, count)
		return
	}
	// Every member in rank order looks up the element size (reporting an
	// unknown datatype), whether or not it passed a buffer.
	sz, n := 0, 0
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		if m, ok := s.members[rank]; ok {
			sz = rt.dtSize(dt)
			n = max(n, elemsHeld(bufOf(m, 0), sz, count), elemsHeld(bufOf(m, 1), sz, count))
		}
	}
	if n == 0 {
		return
	}
	acc, accF := rt.accumulators(n, isInt)
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		m, ok := s.members[rank]
		if !ok {
			continue
		}
		src, dst := bufOf(m, 0), bufOf(m, 1)
		for i := 0; i < n; i++ {
			if src != nil && src.Off+(i+1)*sz <= len(src.Obj.Bytes) {
				if isInt {
					rv, _ := src.Obj.load(src.Off+i*sz, ir.I32)
					acc[i] += rv.I
				} else {
					rv, _ := src.Obj.load(src.Off+i*sz, ir.F64)
					accF[i] += rv.F
				}
			}
			if dst != nil && dst.Off+(i+1)*sz <= len(dst.Obj.Bytes) {
				if isInt {
					_ = dst.Obj.store(dst.Off+i*sz, ir.I32, RV{I: acc[i]})
				} else {
					_ = dst.Obj.store(dst.Off+i*sz, ir.F64, RV{F: accF[i]})
				}
			}
		}
	}
}

func (rt *Runtime) gatherData(s *collSlot) {
	// sbuf0 scount1 sdt2 rbuf3 rcount4 rdt5 root6 comm7
	ref := s.members[s.order[0]]
	root := int(ref.args[6].I)
	rm, ok := s.members[root]
	if !ok {
		return
	}
	dst := bufOf(rm, 3)
	if dst == nil {
		return
	}
	per := int(rm.args[4].I) * rt.dtSize(mpi.Datatype(rm.args[5].I))
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		m, ok := s.members[rank]
		if !ok {
			continue
		}
		src := bufOf(m, 0)
		if src == nil {
			continue
		}
		n := int(m.args[1].I) * rt.dtSize(mpi.Datatype(m.args[2].I))
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
	ref := s.members[s.order[0]]
	root := int(ref.args[6].I)
	rm, ok := s.members[root]
	if !ok {
		return
	}
	src := bufOf(rm, 0)
	if src == nil {
		return
	}
	per := int(rm.args[1].I) * rt.dtSize(mpi.Datatype(rm.args[2].I))
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		m, ok := s.members[rank]
		if !ok {
			continue
		}
		dst := bufOf(m, 3)
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
	// sbuf0 scount1 sdt2 rbuf3 rcount4 rdt5 comm6
	for rank := 0; rank < rt.commSize(s.comm); rank++ {
		src0, ok := s.members[rank]
		if !ok {
			continue
		}
		src := bufOf(src0, 0)
		if src == nil {
			continue
		}
		n := int(src0.args[1].I) * rt.dtSize(mpi.Datatype(src0.args[2].I))
		n = clampLen(src, n)
		for _, m := range s.members {
			dst := bufOf(m, 3)
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

// doCommCreate implements Comm_split / Comm_dup as collectives that mint a
// fresh communicator handle of the same size.
func (rt *Runtime) doCommCreate(p *proc, op mpi.Op, args []RV) (RV, error) {
	return rt.park(p, wait{op: op, slot: rt.joinCollective(p, op, args[0].I, args), args: args})
}

// commCreated finishes Comm_split/Comm_dup once every rank has joined.
func (rt *Runtime) commCreated(p *proc, w *wait) (RV, error) {
	op, args, slot, comm := w.op, w.args, w.slot, w.args[0].I
	// The first rank out mints the handle.
	if slot.newComm == 0 {
		rt.nextComm++
		slot.newComm = rt.nextComm
		rt.comms[slot.newComm] = rt.commSize(comm)
	}
	outIdx := 3
	if op == mpi.OpCommDup {
		outIdx = 1
	}
	if ptr := args[outIdx].P; ptr != nil {
		if err := ptr.Obj.store(ptr.Off, ir.I32, RV{I: slot.newComm}); err != nil {
			return RV{}, err
		}
		p.ownedComms = append(p.ownedComms, slot.newComm)
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doCommFree(p *proc, args []RV) (RV, error) {
	ptr := args[0].P
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

func (rt *Runtime) doTypeContiguous(p *proc, args []RV) (RV, error) {
	count := int(args[0].I)
	base := mpi.Datatype(args[1].I)
	outp := args[2].P
	if outp == nil || count <= 0 {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpTypeContiguous,
			Msg: "invalid count or null newtype"})
		return RV{I: mpi.ErrOther}, nil
	}
	rt.nextType++
	id := rt.nextType
	rt.dtypes[id] = false
	rt.dtypeSizes(id, count*rt.dtSize(base))
	if err := outp.Obj.store(outp.Off, ir.I32, RV{I: id}); err != nil {
		return RV{}, err
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doTypeCommitFree(p *proc, op mpi.Op, args []RV) (RV, error) {
	ptr := args[0].P
	if ptr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null datatype pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	hv, err := ptr.Obj.load(ptr.Off, ir.I32)
	if err != nil {
		return RV{}, err
	}
	if _, ok := rt.dtypes[hv.I]; !ok {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("%s on a non-derived datatype %d", op, hv.I)})
		return RV{I: mpi.ErrOther}, nil
	}
	if op == mpi.OpTypeCommit {
		rt.dtypes[hv.I] = true
	} else {
		delete(rt.dtypes, hv.I)
		_ = ptr.Obj.store(ptr.Off, ir.I32, RV{I: int64(mpi.DTNull)})
	}
	return RV{I: mpi.Success}, nil
}
