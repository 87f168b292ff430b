package mpisim

import (
	"fmt"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// derivedBase is the first derived datatype handle: every handle from
// here up names a type MPI_Type_contiguous made, or none at all.
const derivedBase = 100

// derivedType is one datatype MPI_Type_contiguous made.
type derivedType struct {
	size             int // bytes per element
	committed, freed bool
}

// dtype is the run's one answer to what a datatype handle is.
type dtype struct {
	size      int      // bytes per element; 0 when not known
	known     bool     // false for a derived handle this run never created
	derived   bool     // the handle is derivedBase or above
	valid     bool     // usable for communication: a basic type or a live derived one
	committed bool     // not a derived type still awaiting MPI_Type_commit
	elem      *ir.Type // what reductions load and store: ir.I32 or ir.F64
}

// datatype describes dt. A derived handle that was never created in
// this world (a garbage constant, an uninitialised variable) has no
// defensible size; callers must not guess one, or they both mask real
// truncation mismatches and fabricate spurious ones. A freed handle
// keeps its size.
func (rt *Runtime) datatype(dt mpi.Datatype) dtype {
	if int64(dt) >= derivedBase {
		t, ok := rt.derived[int64(dt)]
		return dtype{size: t.size, known: ok, derived: true, valid: ok && !t.freed,
			committed: t.committed, elem: ir.F64}
	}
	d := dtype{size: dt.Size(), known: true, valid: dt >= mpi.DTInt && dt <= mpi.DTDerived,
		committed: true, elem: ir.F64}
	switch dt {
	case mpi.DTInt, mpi.DTUnsigned,
		mpi.DTLong: // divergence from MPI: MPI_LONG (8 bytes) loads as i32, and MPI_FLOAT (4 bytes) as f64
		d.elem = ir.I32
	}
	return d
}

// moving is datatype for a collective, RMA or derived-type movement of
// data: an unknown derived handle reports a use-of-unknown-datatype
// violation (once per run) and moves zero bytes, rather than a silent
// guess that would let size-based checks pass or misfire.
func (rt *Runtime) moving(dt mpi.Datatype) dtype {
	d := rt.datatype(dt)
	if !d.known {
		rt.reportOnce(Violation{Kind: VInvalidParam, Rank: -1, Op: mpi.OpNone,
			Msg: fmt.Sprintf("use of unknown or freed derived datatype %d", int64(dt))})
	}
	return d
}

// dtCompatible extends mpi.Datatype.Compatible to derived handles. MPI
// matches by *type signature*, not by handle identity (handles are
// process-local), so two derived types match when their signatures — here
// approximated by their byte sizes — agree.
func (rt *Runtime) dtCompatible(a, b mpi.Datatype) bool {
	aDerived, bDerived := int64(a) >= derivedBase, int64(b) >= derivedBase
	switch {
	case aDerived && bDerived:
		return rt.moving(a).size == rt.moving(b).size
	case aDerived != bDerived:
		return false
	}
	return a.Compatible(b)
}

// validateArgs performs the call-site argument validation an MPI
// implementation with full error checking performs. It records violations
// but never aborts the call (matching tools that keep running).
func (rt *Runtime) validateArgs(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) {
	bad := func(msg string) {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: msg})
	}
	a := &sig.Arg
	if i := a.Count; i >= 0 && args[i].I < 0 {
		bad(fmt.Sprintf("negative count %d", args[i].I))
	}
	if i := a.Datatype; i >= 0 && op != mpi.OpTypeContiguous &&
		op != mpi.OpTypeCommit && op != mpi.OpTypeFree && op != mpi.OpGetCount {
		switch d := rt.datatype(mpi.Datatype(args[i].I)); {
		case !d.valid:
			bad(fmt.Sprintf("invalid datatype %d", args[i].I))
		case !d.committed:
			bad("use of an uncommitted derived datatype")
		}
	}
	if i := a.Tag; i >= 0 {
		v := args[i].I
		isRecv := op == mpi.OpRecv || op == mpi.OpIrecv || op == mpi.OpRecvInit
		switch {
		case v == mpi.AnyTag && !isRecv:
			bad("MPI_ANY_TAG used on a send")
		case v != mpi.AnyTag && (v < 0 || v > mpi.TagUB):
			bad(fmt.Sprintf("tag %d out of range", v))
		}
	}
	if i := a.Comm; i >= 0 {
		if _, known := rt.comms[args[i].I]; !known {
			bad(fmt.Sprintf("invalid communicator %d", args[i].I))
		}
	}
	if i := a.Root; i >= 0 && (args[i].I < 0 || args[i].I >= int64(len(rt.procs))) {
		bad(fmt.Sprintf("invalid root %d", args[i].I))
	}
	if i := a.RedOp; i >= 0 && (args[i].I < int64(mpi.ROSum) || args[i].I > int64(mpi.ROBor)) {
		bad(fmt.Sprintf("invalid reduction operator %d", args[i].I))
	}
	if a.Buf >= 0 && args[a.Buf].P == nil && a.Count >= 0 && args[a.Count].I > 0 {
		bad("null buffer with nonzero count")
	}
	// Sends must name a concrete destination.
	switch op {
	case mpi.OpSend, mpi.OpSsend, mpi.OpBsend, mpi.OpRsend,
		mpi.OpIsend, mpi.OpIssend, mpi.OpSendInit:
		if args[a.Peer].I == mpi.AnySource {
			bad("MPI_ANY_SOURCE used as a send destination")
		}
	}
	// Receives accept wildcards but not other negatives.
	switch op {
	case mpi.OpRecv, mpi.OpIrecv, mpi.OpRecvInit:
		if v := args[a.Peer].I; v < 0 && v != mpi.AnySource && v != mpi.ProcNull {
			bad(fmt.Sprintf("invalid source rank %d", v))
		}
	}
}
