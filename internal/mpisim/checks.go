package mpisim

import (
	"fmt"

	"mpidetect/internal/mpi"
)

// dtSizeKnown returns the byte size of one element of dt and whether
// that size is actually known. A derived handle that was never created
// in this world (a garbage constant, an uninitialised variable) has no
// defensible size; callers must not guess one, or they both mask real
// truncation mismatches and fabricate spurious ones.
func (rt *Runtime) dtSizeKnown(dt mpi.Datatype) (int, bool) {
	if int64(dt) >= 100 {
		sz, ok := rt.derivedSizes[int64(dt)]
		return sz, ok
	}
	return dt.Size(), true
}

// dtSize is dtSizeKnown for callers that need a size for data movement:
// an unknown derived handle reports a use-of-unknown-datatype violation
// (once per run) and contributes zero bytes, rather than the old silent
// 4-byte guess that let size-based checks pass or misfire.
func (rt *Runtime) dtSize(dt mpi.Datatype) int {
	sz, ok := rt.dtSizeKnown(dt)
	if !ok {
		rt.reportOnce(Violation{Kind: VInvalidParam, Rank: -1, Op: mpi.OpNone,
			Msg: fmt.Sprintf("use of unknown or freed derived datatype %d", int64(dt))})
		return 0
	}
	return sz
}

// dtypeSizes records the size of a derived datatype.
func (rt *Runtime) dtypeSizes(id int64, size int) {
	if rt.derivedSizes == nil {
		rt.derivedSizes = map[int64]int{}
	}
	rt.derivedSizes[id] = size
}

// dtCompatible extends mpi.Datatype.Compatible to derived handles. MPI
// matches by *type signature*, not by handle identity (handles are
// process-local), so two derived types match when their signatures — here
// approximated by their byte sizes — agree.
func (rt *Runtime) dtCompatible(a, b mpi.Datatype) bool {
	aDerived, bDerived := int64(a) >= 100, int64(b) >= 100
	switch {
	case aDerived && bDerived:
		return rt.dtSize(a) == rt.dtSize(b)
	case aDerived != bDerived:
		return false
	}
	return a.Compatible(b)
}

// dtValid reports whether dt is a usable datatype for communication: a
// basic type or a committed derived type.
func (rt *Runtime) dtValid(dt mpi.Datatype) (ok, committed bool) {
	v := int64(dt)
	if v >= 100 {
		c, exists := rt.dtypes[v]
		return exists, c
	}
	return dt >= mpi.DTInt && dt <= mpi.DTDerived, true
}

// validateArgs performs the call-site argument validation an MPI
// implementation with full error checking performs. It records violations
// but never aborts the call (matching tools that keep running).
func (rt *Runtime) validateArgs(p *proc, op mpi.Op, args []RV) {
	sig, ok := mpi.SignatureOf(op)
	if !ok {
		return
	}
	bad := func(msg string) {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: msg})
	}
	arg := func(i int) (RV, bool) {
		if i < 0 || i >= len(args) {
			return RV{}, false
		}
		return args[i], true
	}
	if v, ok := arg(sig.Arg.Count); ok {
		if v.I < 0 {
			bad(fmt.Sprintf("negative count %d", v.I))
		}
	}
	if v, ok := arg(sig.Arg.Datatype); ok && op != mpi.OpTypeContiguous &&
		op != mpi.OpTypeCommit && op != mpi.OpTypeFree && op != mpi.OpGetCount {
		valid, committed := rt.dtValid(mpi.Datatype(v.I))
		switch {
		case !valid:
			bad(fmt.Sprintf("invalid datatype %d", v.I))
		case !committed:
			bad("use of an uncommitted derived datatype")
		}
	}
	if v, ok := arg(sig.Arg.Tag); ok {
		isRecv := op == mpi.OpRecv || op == mpi.OpIrecv || op == mpi.OpRecvInit
		switch {
		case v.I == mpi.AnyTag && !isRecv:
			bad("MPI_ANY_TAG used on a send")
		case v.I != mpi.AnyTag && (v.I < 0 || v.I > mpi.TagUB):
			bad(fmt.Sprintf("tag %d out of range", v.I))
		}
	}
	if v, ok := arg(sig.Arg.Comm); ok {
		if _, known := rt.comms[v.I]; !known {
			bad(fmt.Sprintf("invalid communicator %d", v.I))
		}
	}
	if v, ok := arg(sig.Arg.Root); ok {
		if v.I < 0 || v.I >= int64(len(rt.procs)) {
			bad(fmt.Sprintf("invalid root %d", v.I))
		}
	}
	if v, ok := arg(sig.Arg.RedOp); ok {
		if v.I < int64(mpi.ROSum) || v.I > int64(mpi.ROBor) {
			bad(fmt.Sprintf("invalid reduction operator %d", v.I))
		}
	}
	if v, ok := arg(sig.Arg.Buf); ok {
		if v.P == nil {
			if c, okc := arg(sig.Arg.Count); okc && c.I > 0 {
				bad("null buffer with nonzero count")
			}
		}
	}
	// Sends must name a concrete destination.
	switch op {
	case mpi.OpSend, mpi.OpSsend, mpi.OpBsend, mpi.OpRsend,
		mpi.OpIsend, mpi.OpIssend, mpi.OpSendInit:
		if v, ok := arg(sig.Arg.Peer); ok && v.I == mpi.AnySource {
			bad("MPI_ANY_SOURCE used as a send destination")
		}
	}
	// Receives accept wildcards but not other negatives.
	switch op {
	case mpi.OpRecv, mpi.OpIrecv, mpi.OpRecvInit:
		if v, ok := arg(sig.Arg.Peer); ok && v.I < 0 &&
			v.I != mpi.AnySource && v.I != mpi.ProcNull {
			bad(fmt.Sprintf("invalid source rank %d", v.I))
		}
	}
}
