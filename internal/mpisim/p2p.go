package mpisim

import (
	"fmt"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// message is a posted (not yet received) send.
type message struct {
	src, dst, tag int
	comm          int64
	dtype         mpi.Datatype
	data          []byte
	synchronous   bool // rendezvous semantics (Ssend or large standard send)
	matched       bool
}

// recvPost is a posted (not yet matched) receive.
type recvPost struct {
	dst, src, tag int
	comm          int64
	dtype         mpi.Datatype
	count         int
	buf           *Ptr
	status        *Ptr
	completed     bool
}

// request is an MPI_Request table entry.
type request struct {
	id         int64
	owner      int
	op         mpi.Op
	persistent bool
	active     bool
	freed      bool

	// persistent template arguments
	args []RV

	msg  *message
	recv *recvPost
	coll *collSlot

	completedAndWaited bool
}

func (r *request) completed() bool {
	switch {
	case r.coll != nil:
		return r.coll.done
	case r.msg != nil:
		return r.msg.matched || !r.msg.synchronous
	case r.recv != nil:
		return r.recv.completed
	}
	return true
}

// p2pArgs decodes the common (buf, count, dtype, peer, tag, comm) prefix.
func p2pArgs(args []RV) (buf *Ptr, count int, dt mpi.Datatype, peer, tag int, comm int64) {
	buf = args[0].P
	count = int(args[1].I)
	dt = mpi.Datatype(args[2].I)
	peer = int(args[3].I)
	tag = int(args[4].I)
	comm = args[5].I
	return
}

func (rt *Runtime) doSend(p *proc, op mpi.Op, args []RV) (RV, error) {
	buf, count, dt, dst, tag, comm := p2pArgs(args)
	if dst == mpi.ProcNull {
		return RV{I: mpi.Success}, nil
	}
	if !rt.peerOK(p, op, dst) {
		return RV{I: mpi.ErrOther}, nil
	}
	bytes := rt.readBuf(p, op, buf, count, dt)
	msg := rt.newMessage()
	*msg = message{src: p.rank, dst: dst, tag: tag, comm: comm, dtype: dt, data: bytes}
	msg.synchronous = op == mpi.OpSsend || op == mpi.OpRsend || len(bytes) > eagerLimit
	rt.postSend(msg)
	return rt.park(p, wait{op: op, msg: msg})
}

func (rt *Runtime) doRecv(p *proc, op mpi.Op, args []RV) (RV, error) {
	buf, count, dt, src, tag, comm := p2pArgs(args)
	if src == mpi.ProcNull {
		return RV{I: mpi.Success}, nil
	}
	var status *Ptr
	if len(args) > 6 {
		status = args[6].P
	}
	r := rt.newRecvPost()
	*r = recvPost{dst: p.rank, src: src, tag: tag, comm: comm, dtype: dt,
		count: count, buf: buf, status: status}
	rt.postRecv(r)
	return rt.park(p, wait{op: op, recv: r})
}

func (rt *Runtime) doSendrecv(p *proc, args []RV) (RV, error) {
	// sbuf, scount, sdt, dst, stag, rbuf, rcount, rdt, src, rtag, comm, status
	comm := args[10].I
	dst, src := int(args[3].I), int(args[8].I)
	// Post the receive first, then the send, then wait: this is the
	// deadlock-free semantics of MPI_Sendrecv.
	var r *recvPost
	if src != mpi.ProcNull {
		r = rt.newRecvPost()
		*r = recvPost{dst: p.rank, src: src, tag: int(args[9].I), comm: comm,
			dtype: mpi.Datatype(args[7].I), count: int(args[6].I),
			buf: args[5].P, status: args[11].P}
		rt.postRecv(r)
	}
	if dst != mpi.ProcNull && rt.peerOK(p, mpi.OpSendrecv, dst) {
		bytes := rt.readBuf(p, mpi.OpSendrecv, args[0].P, int(args[1].I), mpi.Datatype(args[2].I))
		msg := rt.newMessage()
		*msg = message{src: p.rank, dst: dst, tag: int(args[4].I), comm: comm,
			dtype: mpi.Datatype(args[2].I), data: bytes}
		rt.postSend(msg)
	}
	return rt.park(p, wait{op: mpi.OpSendrecv, recv: r})
}

// doImmediate handles Isend/Issend/Irecv and the persistent inits.
func (rt *Runtime) doImmediate(p *proc, op mpi.Op, args []RV) (RV, error) {
	reqPtr := args[6].P
	if reqPtr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null request pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	rt.nextReq++
	r := rt.newRequest()
	*r = request{id: rt.nextReq, owner: p.rank, op: op, args: args}
	rt.reqs[r.id] = r
	if op == mpi.OpSendInit || op == mpi.OpRecvInit {
		r.persistent = true
	} else {
		rt.activateRequest(p, r)
	}
	if err := reqPtr.Obj.store(reqPtr.Off, ir.I64, RV{I: r.id}); err != nil {
		return RV{}, err
	}
	return RV{I: mpi.Success}, nil
}

// activateRequest starts the communication described by a request.
func (rt *Runtime) activateRequest(p *proc, r *request) {
	args := r.args
	buf, count, dt, peer, tag, comm := p2pArgs(args)
	r.active = true
	isRecv := r.op == mpi.OpIrecv || r.op == mpi.OpRecvInit
	if peer == mpi.ProcNull {
		r.msg = nil
		r.recv = nil
		return
	}
	if isRecv {
		rp := rt.newRecvPost()
		*rp = recvPost{dst: p.rank, src: peer, tag: tag, comm: comm, dtype: dt,
			count: count, buf: buf}
		r.recv = rp
		rt.postRecv(rp)
		if buf != nil {
			p.activeRegions = append(p.activeRegions, activeRegion{obj: buf.Obj, off: buf.Off,
				length: count * dt.Size(), write: true, reqID: r.id, op: r.op})
		}
		return
	}
	if !rt.peerOK(p, r.op, peer) {
		return
	}
	bytes := rt.readBuf(p, r.op, buf, count, dt)
	msg := rt.newMessage()
	*msg = message{src: p.rank, dst: peer, tag: tag, comm: comm, dtype: dt, data: bytes}
	msg.synchronous = r.op == mpi.OpIssend || len(bytes) > eagerLimit
	r.msg = msg
	rt.postSend(msg)
	if buf != nil {
		p.activeRegions = append(p.activeRegions, activeRegion{obj: buf.Obj, off: buf.Off,
			length: count * dt.Size(), write: false, reqID: r.id, op: r.op})
	}
}

// postSend matches against posted receives or queues the message.
func (rt *Runtime) postSend(msg *message) {
	rt.msgLog = append(rt.msgLog, msgRecord{src: msg.src, dst: msg.dst, tag: msg.tag, comm: msg.comm})
	for _, r := range rt.recvs {
		if r.completed || !r.matches(msg) {
			continue
		}
		rt.deliver(msg, r)
		return
	}
	rt.sends = append(rt.sends, msg)
}

// postRecv matches against queued sends or queues the receive.
func (rt *Runtime) postRecv(r *recvPost) {
	if r.src == mpi.AnySource {
		rt.wildRecvs = append(rt.wildRecvs, wildRecord{dst: r.dst, tag: r.tag, comm: r.comm})
	}
	candidates := 0
	var first *message
	for _, msg := range rt.sends {
		if msg.matched || !r.matches(msg) {
			continue
		}
		if first == nil {
			first = msg
		}
		candidates++
	}
	if first != nil {
		if r.src == mpi.AnySource && candidates > 1 {
			rt.reportOnce(Violation{Kind: VMessageRace, Rank: r.dst, Op: mpi.OpRecv,
				Msg: fmt.Sprintf("wildcard receive matches %d queued messages", candidates)})
		}
		rt.deliver(first, r)
		return
	}
	rt.recvs = append(rt.recvs, r)
}

func (r *recvPost) matches(msg *message) bool {
	if msg.dst != r.dst || msg.comm != r.comm {
		return false
	}
	if r.src != mpi.AnySource && r.src != msg.src {
		return false
	}
	if r.tag != mpi.AnyTag && r.tag != msg.tag {
		return false
	}
	return true
}

// deliver moves message data into the receive buffer, performing the
// type/size checks dynamic tools do at match time.
func (rt *Runtime) deliver(msg *message, r *recvPost) {
	msg.matched = true
	r.completed = true
	if !rt.dtCompatible(msg.dtype, r.dtype) {
		rt.report(Violation{Kind: VTypeMismatch, Rank: r.dst, Op: mpi.OpRecv,
			Msg: fmt.Sprintf("send type %s does not match recv type %s", msg.dtype, r.dtype)})
	}
	sendBytes := len(msg.data)
	n := sendBytes
	recvSize, recvSizeKnown := rt.dtSizeKnown(r.dtype)
	if recvSizeKnown {
		recvCap := r.count * recvSize
		if recvCap < 0 {
			recvCap = 0 // negative counts were already reported as invalid
		}
		if sendBytes > recvCap {
			rt.report(Violation{Kind: VTruncation, Rank: r.dst, Op: mpi.OpRecv,
				Msg: fmt.Sprintf("message of %d bytes truncated to %d", sendBytes, recvCap)})
			n = recvCap
		}
	} else {
		// The receive names a derived datatype this world never created:
		// its element size is unknowable, so no truncation verdict can be
		// defended either way — report the real error and move no data.
		rt.reportOnce(Violation{Kind: VInvalidParam, Rank: r.dst, Op: mpi.OpRecv,
			Msg: fmt.Sprintf("receive posted with unknown or freed derived datatype %d", int64(r.dtype))})
		n = 0
	}
	if r.buf != nil {
		dst := r.buf
		if dst.Off+n > len(dst.Obj.Bytes) {
			rt.report(Violation{Kind: VBufferOverflow, Rank: r.dst, Op: mpi.OpRecv,
				Msg: "receive overflows destination buffer"})
			n = len(dst.Obj.Bytes) - dst.Off
			if n < 0 {
				n = 0
			}
		}
		copy(dst.Obj.Bytes[dst.Off:dst.Off+n], msg.data[:n])
	}
	if r.status != nil {
		// MPI_Status{source, tag, error}
		_ = r.status.Obj.store(r.status.Off, ir.I32, RV{I: int64(msg.src)})
		_ = r.status.Obj.store(r.status.Off+4, ir.I32, RV{I: int64(msg.tag)})
		_ = r.status.Obj.store(r.status.Off+8, ir.I32, RV{I: 0})
	}
	// Completed nonblocking receive releases the sender-side block too via
	// msg.matched; region bookkeeping is cleared at Wait time.
	rt.pruneQueues()
}

func (rt *Runtime) pruneQueues() {
	live := rt.sends[:0]
	for _, m := range rt.sends {
		if !m.matched {
			live = append(live, m)
		}
	}
	rt.sends = live
	liveR := rt.recvs[:0]
	for _, r := range rt.recvs {
		if !r.completed {
			liveR = append(liveR, r)
		}
	}
	rt.recvs = liveR
}

// lookupRequest resolves a request handle read from memory.
func (rt *Runtime) lookupRequest(p *proc, op mpi.Op, ptr *Ptr) (*request, bool) {
	if ptr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null request pointer"})
		return nil, false
	}
	hv, err := ptr.Obj.load(ptr.Off, ir.I64)
	if err != nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "unreadable request"})
		return nil, false
	}
	if hv.I == mpi.RequestNil {
		return nil, true // null request: no-op per the standard
	}
	r, ok := rt.reqs[hv.I]
	if !ok {
		rt.report(Violation{Kind: VRequestLife, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("operation on uninitialised request handle %d", hv.I)})
		return nil, false
	}
	if r.freed {
		rt.report(Violation{Kind: VRequestLife, Rank: p.rank, Op: op,
			Msg: "operation on freed request"})
		return nil, false
	}
	return r, true
}

// clearRegions removes the active-region bookkeeping of a request.
func (p *proc) clearRegions(reqID int64) {
	live := p.activeRegions[:0]
	for _, reg := range p.activeRegions {
		if reg.reqID != reqID {
			live = append(live, reg)
		}
	}
	p.activeRegions = live
}

func (rt *Runtime) doWait(p *proc, args []RV) (RV, error) {
	r, ok := rt.lookupRequest(p, mpi.OpWait, args[0].P)
	if !ok || r == nil {
		return RV{I: mpi.Success}, nil
	}
	if r.persistent && !r.active {
		// Waiting on an inactive persistent request returns immediately.
		return RV{I: mpi.Success}, nil
	}
	return rt.park(p, wait{op: mpi.OpWait, req: r, args: args})
}

func (rt *Runtime) completeRequest(p *proc, r *request, handlePtr *Ptr) {
	r.completedAndWaited = true
	p.clearRegions(r.id)
	if r.persistent {
		r.active = false
		return
	}
	r.freed = true
	if handlePtr != nil {
		_ = handlePtr.Obj.store(handlePtr.Off, ir.I64, RV{I: mpi.RequestNil})
	}
}

// doWaitall completes MPI_Waitall's requests in order from the i-th and
// parks on the first incomplete one; finish completes that one and
// continues here with the next.
func (rt *Runtime) doWaitall(p *proc, args []RV, i int) (RV, error) {
	n, base := int(args[0].I), args[1].P
	if base == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpWaitall, Msg: "null request array"})
		return RV{I: mpi.ErrOther}, nil
	}
	for ; i < n; i++ {
		hp := &Ptr{Obj: base.Obj, Off: base.Off + 8*i}
		r, ok := rt.lookupRequest(p, mpi.OpWaitall, hp)
		if !ok || r == nil {
			continue
		}
		if r.persistent && !r.active {
			continue
		}
		if !r.completed() {
			return rt.park(p, wait{op: mpi.OpWaitall, req: r, args: args, idx: i})
		}
		rt.completeRequest(p, r, hp)
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doTest(p *proc, args []RV) (RV, error) {
	r, ok := rt.lookupRequest(p, mpi.OpTest, args[0].P)
	flagPtr := args[1].P
	setFlag := func(v int64) {
		if flagPtr != nil {
			_ = flagPtr.Obj.store(flagPtr.Off, ir.I32, RV{I: v})
		}
	}
	if !ok || r == nil {
		setFlag(1)
		return RV{I: mpi.Success}, nil
	}
	if r.completed() {
		rt.completeRequest(p, r, args[0].P)
		setFlag(1)
	} else {
		setFlag(0)
		// Give other ranks a round so MPI_Test polling loops make
		// progress under the cooperative scheduler. Once a deadlock or
		// stop is latched, keep running until the interpreter's step
		// check unwinds this rank.
		if !rt.deadlock && rt.stopNow() == nil {
			p.wait = wait{op: mpi.OpTest}
			return RV{}, errPark
		}
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doRequestFree(p *proc, args []RV) (RV, error) {
	r, ok := rt.lookupRequest(p, mpi.OpRequestFree, args[0].P)
	if !ok || r == nil {
		return RV{I: mpi.Success}, nil
	}
	if r.active && !r.completed() {
		rt.report(Violation{Kind: VRequestLife, Rank: p.rank, Op: mpi.OpRequestFree,
			Msg: "freeing an active uncompleted request"})
	}
	r.freed = true
	r.completedAndWaited = true
	p.clearRegions(r.id)
	if args[0].P != nil {
		_ = args[0].P.Obj.store(args[0].P.Off, ir.I64, RV{I: mpi.RequestNil})
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doStart(p *proc, op mpi.Op, args []RV) (RV, error) {
	if op == mpi.OpStart {
		rt.startRequest(p, op, args[0].P)
		return RV{I: mpi.Success}, nil
	}
	n, base := int(args[0].I), args[1].P
	if base == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null request array"})
		return RV{I: mpi.ErrOther}, nil
	}
	for i := 0; i < n; i++ {
		hp := Ptr{Obj: base.Obj, Off: base.Off + 8*i}
		rt.startRequest(p, op, &hp)
	}
	return RV{I: mpi.Success}, nil
}

// startRequest activates the persistent request behind handle hp.
func (rt *Runtime) startRequest(p *proc, op mpi.Op, hp *Ptr) {
	r, ok := rt.lookupRequest(p, op, hp)
	if !ok || r == nil {
		return
	}
	if !r.persistent {
		rt.report(Violation{Kind: VRequestLife, Rank: p.rank, Op: op,
			Msg: "MPI_Start on a non-persistent request"})
		return
	}
	if r.active {
		rt.report(Violation{Kind: VRequestLife, Rank: p.rank, Op: op,
			Msg: "MPI_Start on an already active request"})
		return
	}
	rt.activateRequest(p, r)
}

func (rt *Runtime) doGetCount(p *proc, args []RV) (RV, error) {
	st := args[0].P
	outp := args[2].P
	if st == nil || outp == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpGetCount, Msg: "null pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	// We stored source/tag; count retrieval returns a fixed token (the
	// simulator does not track per-status byte counts).
	_ = outp.Obj.store(outp.Off, ir.I32, RV{I: 0})
	return RV{I: mpi.Success}, nil
}

// readBuf snapshots count elements from a send buffer.
func (rt *Runtime) readBuf(p *proc, op mpi.Op, buf *Ptr, count int, dt mpi.Datatype) []byte {
	if buf == nil {
		if count > 0 {
			rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null buffer with nonzero count"})
		}
		return nil
	}
	n := count * dt.Size()
	if n < 0 {
		n = 0
	}
	if buf.Off+n > len(buf.Obj.Bytes) {
		rt.report(Violation{Kind: VBufferOverflow, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("send reads %d bytes from a %d-byte object", n, len(buf.Obj.Bytes)-buf.Off)})
		n = len(buf.Obj.Bytes) - buf.Off
		if n < 0 {
			n = 0
		}
	}
	// Message payloads come from the run's arena (fully overwritten by the
	// copy, so no clearing is needed) and are recycled when the run ends.
	out := rt.getBytes(n, false)
	copy(out, buf.Obj.Bytes[buf.Off:buf.Off+n])
	return out
}

// peerOK validates a peer rank.
func (rt *Runtime) peerOK(p *proc, op mpi.Op, peer int) bool {
	if peer < 0 || peer >= len(rt.procs) {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("invalid peer rank %d (size %d)", peer, len(rt.procs))})
		return false
	}
	return true
}
