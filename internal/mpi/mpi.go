// Package mpi defines the MPI API model shared by every layer of the
// reproduction: the set of MPI operations that can appear in generated
// programs, their signatures, datatypes, reduction operators, and the
// semantic metadata (collectiveness, which argument is the tag, ...) that
// the front-end, the runtime simulator, the static verifiers and the
// embedding layers all consult. Each routine is declared once, as a row of
// the routines table.
//
// The model intentionally covers the MPI subset exercised by the MPI Bugs
// Initiative and MPI-CorrBench: blocking and nonblocking point-to-point,
// persistent communication, collectives, and one-sided (RMA) epochs.
package mpi

import (
	"fmt"
	"slices"
)

// Op identifies an MPI operation.
type Op int

// The MPI operations known to the model.
const (
	OpNone Op = iota
	OpInit
	OpFinalize
	OpCommRank
	OpCommSize
	OpSend
	OpSsend
	OpBsend
	OpRsend
	OpRecv
	OpSendrecv
	OpIsend
	OpIssend
	OpIrecv
	OpWait
	OpWaitall
	OpTest
	OpRequestFree
	OpSendInit
	OpRecvInit
	OpStart
	OpStartall
	OpBarrier
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	OpScatter
	OpAllgather
	OpAlltoall
	OpExscan
	OpScan
	OpIbarrier
	OpIbcast
	OpIallreduce
	OpWinCreate
	OpWinFree
	OpWinFence
	OpPut
	OpGet
	OpAccumulate
	OpWinLock
	OpWinUnlock
	OpCommSplit
	OpCommFree
	OpCommDup
	OpTypeContiguous
	OpTypeCommit
	OpTypeFree
	OpGetCount
	OpAbort
)

// routines is the MPI model's one table of routines, indexed by Op: each
// row gives the C name, the flags and the parameters in C order. The
// names, SignatureOf, IsCollective, StartsRequest and the IR prototypes
// lowering declares are all read from it.
var routines = [...]routine{
	OpInit:           {"MPI_Init", 0, []Param{ptr, ptr}},
	OpFinalize:       {"MPI_Finalize", 0, nil},
	OpCommRank:       {"MPI_Comm_rank", 0, []Param{comm, bufOut}},
	OpCommSize:       {"MPI_Comm_size", 0, []Param{comm, bufOut}},
	OpSend:           {"MPI_Send", 0, []Param{buf, count, dtype, peer, tag, comm}},
	OpSsend:          {"MPI_Ssend", 0, []Param{buf, count, dtype, peer, tag, comm}},
	OpBsend:          {"MPI_Bsend", 0, []Param{buf, count, dtype, peer, tag, comm}},
	OpRsend:          {"MPI_Rsend", 0, []Param{buf, count, dtype, peer, tag, comm}},
	OpRecv:           {"MPI_Recv", 0, []Param{buf, count, dtype, peer, tag, comm, status}},
	OpSendrecv:       {"MPI_Sendrecv", 0, []Param{buf, count, dtype, peer, tag, recvBuf, recvCount, recvDtype, source, recvTag, comm, status}},
	OpIsend:          {"MPI_Isend", startsRequest, []Param{buf, count, dtype, peer, tag, comm, req}},
	OpIssend:         {"MPI_Issend", startsRequest, []Param{buf, count, dtype, peer, tag, comm, req}},
	OpIrecv:          {"MPI_Irecv", startsRequest, []Param{buf, count, dtype, peer, tag, comm, req}},
	OpWait:           {"MPI_Wait", 0, []Param{req, status}},
	OpWaitall:        {"MPI_Waitall", 0, []Param{count, req, status}},
	OpTest:           {"MPI_Test", 0, []Param{req, out, status}},
	OpRequestFree:    {"MPI_Request_free", 0, []Param{req}},
	OpSendInit:       {"MPI_Send_init", startsRequest, []Param{buf, count, dtype, peer, tag, comm, req}},
	OpRecvInit:       {"MPI_Recv_init", startsRequest, []Param{buf, count, dtype, peer, tag, comm, req}},
	OpStart:          {"MPI_Start", 0, []Param{req}},
	OpStartall:       {"MPI_Startall", 0, []Param{count, req}},
	OpBarrier:        {"MPI_Barrier", collective, []Param{comm}},
	OpBcast:          {"MPI_Bcast", collective, []Param{buf, count, dtype, root, comm}},
	OpReduce:         {"MPI_Reduce", collective, []Param{buf, recvBuf, count, dtype, redop, root, comm}},
	OpAllreduce:      {"MPI_Allreduce", collective, []Param{buf, recvBuf, count, dtype, redop, comm}},
	OpGather:         {"MPI_Gather", collective, []Param{buf, count, dtype, recvBuf, recvCount, recvDtype, root, comm}},
	OpScatter:        {"MPI_Scatter", collective, []Param{buf, count, dtype, recvBuf, recvCount, recvDtype, root, comm}},
	OpAllgather:      {"MPI_Allgather", collective, []Param{buf, count, dtype, recvBuf, recvCount, recvDtype, comm}},
	OpAlltoall:       {"MPI_Alltoall", collective, []Param{buf, count, dtype, recvBuf, recvCount, recvDtype, comm}},
	OpExscan:         {"MPI_Exscan", collective, []Param{buf, recvBuf, count, dtype, redop, comm}},
	OpScan:           {"MPI_Scan", collective, []Param{buf, recvBuf, count, dtype, redop, comm}},
	OpIbarrier:       {"MPI_Ibarrier", collective | startsRequest, []Param{comm, req}},
	OpIbcast:         {"MPI_Ibcast", collective | startsRequest, []Param{buf, count, dtype, root, comm, req}},
	OpIallreduce:     {"MPI_Iallreduce", collective | startsRequest, []Param{buf, recvBuf, count, dtype, redop, comm, req}},
	OpWinCreate:      {"MPI_Win_create", 0, []Param{buf, size, i32, i32, comm, winOut}},
	OpWinFree:        {"MPI_Win_free", 0, []Param{winOut}},
	OpWinFence:       {"MPI_Win_fence", 0, []Param{i32, win}},
	OpPut:            {"MPI_Put", 0, []Param{buf, count, dtype, peer, disp, i32, targetDtype, win}},
	OpGet:            {"MPI_Get", 0, []Param{buf, count, dtype, peer, disp, i32, targetDtype, win}},
	OpAccumulate:     {"MPI_Accumulate", 0, []Param{buf, count, dtype, peer, disp, i32, targetDtype, redop, win}},
	OpWinLock:        {"MPI_Win_lock", 0, []Param{i32, peer, i32, win}},
	OpWinUnlock:      {"MPI_Win_unlock", 0, []Param{peer, win}},
	OpCommSplit:      {"MPI_Comm_split", 0, []Param{comm, i32, i32, out}},
	OpCommFree:       {"MPI_Comm_free", 0, []Param{out}}, // the handle by pointer: no comm-value position
	OpCommDup:        {"MPI_Comm_dup", 0, []Param{comm, out}},
	OpTypeContiguous: {"MPI_Type_contiguous", 0, []Param{count, dtype, out}},
	OpTypeCommit:     {"MPI_Type_commit", 0, []Param{dtypeOut}},
	OpTypeFree:       {"MPI_Type_free", 0, []Param{dtypeOut}},
	OpGetCount:       {"MPI_Get_count", 0, []Param{status, dtype, bufOut}},
	OpAbort:          {"MPI_Abort", 0, []Param{comm, i32}},
}

// routine is one row of the routines table.
type routine struct {
	name   string
	flags  flags
	params []Param
}

// flags holds what a routine's row says beyond its parameters.
type flags uint8

const (
	collective    flags = 1 << iota // a (possibly nonblocking) collective
	startsRequest                   // produces an MPI_Request that must be completed or freed
)

// Kind is the C type of an MPI routine parameter, with the MPI handles
// lowered to the integers generated programs pass.
type Kind uint8

// Parameter kinds.
const (
	KVoidPtr   Kind = iota // void*: a message buffer, or MPI_Init's argc/argv
	KInt                   // int: a count, rank, tag or flag, or a comm, datatype or operator handle
	KIntPtr                // int*: an int or int handle the routine writes
	KLong                  // long: a displacement or size, or a window handle
	KReqPtr                // MPI_Request* or MPI_Win*: a pointer to an i64 handle
	KStatusPtr             // MPI_Status*
)

// Param is one parameter of an MPI routine: its C type, and the ArgIndex
// field that records its position if it plays a role in the call.
type Param struct {
	Kind Kind
	role func(*ArgIndex) *int
}

// The parameters the routines table is written with: one per kind and
// role that some routine takes. A parameter with no role is named for its
// kind, after the IR type it lowers to.
var (
	buf         = Param{KVoidPtr, func(a *ArgIndex) *int { return &a.Buf }}
	count       = Param{KInt, func(a *ArgIndex) *int { return &a.Count }}
	dtype       = Param{KInt, func(a *ArgIndex) *int { return &a.Datatype }}
	peer        = Param{KInt, func(a *ArgIndex) *int { return &a.Peer }}
	tag         = Param{KInt, func(a *ArgIndex) *int { return &a.Tag }}
	comm        = Param{KInt, func(a *ArgIndex) *int { return &a.Comm }}
	root        = Param{KInt, func(a *ArgIndex) *int { return &a.Root }}
	redop       = Param{KInt, func(a *ArgIndex) *int { return &a.RedOp }}
	win         = Param{KLong, func(a *ArgIndex) *int { return &a.Win }}
	req         = Param{KReqPtr, func(a *ArgIndex) *int { return &a.Request }}
	recvBuf     = Param{KVoidPtr, func(a *ArgIndex) *int { return &a.RecvBuf }}
	recvCount   = Param{KInt, func(a *ArgIndex) *int { return &a.RecvCount }}
	recvDtype   = Param{KInt, func(a *ArgIndex) *int { return &a.RecvDatatype }}
	source      = Param{KInt, func(a *ArgIndex) *int { return &a.Source }}
	recvTag     = Param{KInt, func(a *ArgIndex) *int { return &a.RecvTag }}
	status      = Param{KStatusPtr, func(a *ArgIndex) *int { return &a.Status }}
	out         = Param{KIntPtr, func(a *ArgIndex) *int { return &a.Out }}
	size        = Param{KLong, func(a *ArgIndex) *int { return &a.Size }}
	disp        = Param{KLong, func(a *ArgIndex) *int { return &a.Disp }}
	targetDtype = Param{KInt, func(a *ArgIndex) *int { return &a.TargetDatatype }}
	bufOut      = Param{KIntPtr, buf.role}   // the rank, size or count the routine writes
	dtypeOut    = Param{KIntPtr, dtype.role} // the handle MPI_Type_commit and _free take by pointer
	winOut      = Param{KReqPtr, win.role}   // the handle MPI_Win_create writes and MPI_Win_free clears
	ptr         = Param{Kind: KVoidPtr}
	i32         = Param{Kind: KInt}
)

// String returns the canonical MPI function name (e.g. "MPI_Send").
func (o Op) String() string {
	if o > OpNone && int(o) < len(routines) {
		return routines[o].name
	}
	return fmt.Sprintf("MPI_Op(%d)", int(o))
}

// FromName maps an MPI function name back to its Op; ok reports whether the
// name is a known MPI operation.
func FromName(name string) (Op, bool) {
	op, ok := byName[name]
	return op, ok
}

// IsCollective reports whether op is a (possibly nonblocking) collective.
func IsCollective(op Op) bool { return op.flags()&collective != 0 }

// StartsRequest reports whether op produces an MPI_Request that must later
// be completed (wait/test) or freed.
func StartsRequest(op Op) bool { return op.flags()&startsRequest != 0 }

func (o Op) flags() flags {
	if o > OpNone && int(o) < len(routines) {
		return routines[o].flags
	}
	return 0
}

// Datatype models an MPI datatype handle.
type Datatype int

// The basic datatypes exercised by the benchmarks.
const (
	DTNull Datatype = iota
	DTInt
	DTFloat
	DTDouble
	DTChar
	DTLong
	DTByte
	DTUnsigned
	DTDerived // a committed derived type (Type_contiguous)
)

var dtNames = [...]string{
	DTNull:     "MPI_DATATYPE_NULL",
	DTInt:      "MPI_INT",
	DTFloat:    "MPI_FLOAT",
	DTDouble:   "MPI_DOUBLE",
	DTChar:     "MPI_CHAR",
	DTLong:     "MPI_LONG",
	DTByte:     "MPI_BYTE",
	DTUnsigned: "MPI_UNSIGNED",
	DTDerived:  "MPI_DERIVED",
}

// String returns the canonical MPI constant name.
func (d Datatype) String() string {
	if d >= 0 && int(d) < len(dtNames) {
		return dtNames[d]
	}
	return fmt.Sprintf("MPI_Datatype(%d)", int(d))
}

// Size returns the size in bytes of one element of the datatype.
func (d Datatype) Size() int {
	switch d {
	case DTInt, DTFloat, DTUnsigned:
		return 4
	case DTDouble, DTLong:
		return 8
	case DTChar, DTByte:
		return 1
	case DTDerived:
		return 16
	}
	return 0
}

// Compatible reports whether a send datatype matches a receive datatype
// under MPI's type-matching rules (we require equality, with BYTE acting as
// a wildcard as real implementations commonly accept).
func (d Datatype) Compatible(other Datatype) bool {
	if d == DTByte || other == DTByte {
		return true
	}
	return d == other
}

// ReduceOp models an MPI reduction operator handle.
type ReduceOp int

// Reduction operators.
const (
	RONull ReduceOp = iota
	ROSum
	ROProd
	ROMax
	ROMin
	ROLand
	ROBor
)

var roNames = [...]string{
	RONull: "MPI_OP_NULL",
	ROSum:  "MPI_SUM",
	ROProd: "MPI_PROD",
	ROMax:  "MPI_MAX",
	ROMin:  "MPI_MIN",
	ROLand: "MPI_LAND",
	ROBor:  "MPI_BOR",
}

// String returns the canonical MPI constant name.
func (r ReduceOp) String() string {
	if r >= 0 && int(r) < len(roNames) {
		return roNames[r]
	}
	return fmt.Sprintf("MPI_Op(%d)", int(r))
}

// HandleNamed returns the value of the datatype or reduction-operator
// handle an mpi.h constant spells, such as MPI_INT or MPI_SUM. MPI_DERIVED,
// the model's name for a committed derived type, is not one.
func HandleNamed(name string) (int64, bool) {
	if i := slices.Index(dtNames[:DTDerived], name); i >= 0 {
		return int64(i), true
	}
	i := slices.Index(roNames[:], name)
	return int64(i), i >= 0
}

// Well-known constants mirroring mpi.h. Their concrete integer values are
// arbitrary but stable: generated programs embed them as literals and the
// simulator decodes them.
const (
	CommWorld  = 91 // MPI_COMM_WORLD
	CommSelf   = 92 // MPI_COMM_SELF
	CommNull   = 0  // MPI_COMM_NULL
	AnySource  = -2 // MPI_ANY_SOURCE
	AnyTag     = -1 // MPI_ANY_TAG
	ProcNull   = -3 // MPI_PROC_NULL
	RequestNil = 0  // MPI_REQUEST_NULL
	TagUB      = 32767
	Success    = 0 // MPI_SUCCESS
	ErrOther   = 15
)

// ArgIndex describes which argument position plays which semantic role for
// an operation; -1 means the operation has no such argument.
type ArgIndex struct {
	Buf      int // data buffer pointer
	Count    int // element count
	Datatype int // datatype handle
	Peer     int // destination or source rank
	Tag      int // message tag
	Comm     int // communicator
	Request  int // request pointer
	Root     int // collective root
	RedOp    int // reduction operator
	Win      int // RMA window handle

	RecvBuf      int // receive buffer pointer, beside Buf's send buffer
	RecvCount    int // receive element count, where it is not Count
	RecvDatatype int // receive datatype handle, where it is not Datatype
	Source       int // source rank, where Peer is the destination
	RecvTag      int // receive tag, where Tag is the send tag
	Status       int // MPI_Status pointer
	// Out is an int the routine writes by pointer: MPI_Test's flag, the
	// communicator or datatype handle Comm_split, Comm_dup or
	// Type_contiguous makes, or the handle Comm_free nulls.
	Out            int
	Size           int // MPI_Win_create's window size in bytes
	Disp           int // RMA target displacement
	TargetDatatype int // RMA target datatype handle
}

// Signature describes an MPI call's semantic argument positions and its
// parameters; the arity is len(Params).
type Signature struct {
	Arg    ArgIndex
	Params []Param // in call order; shared with the routines table, read only
}

// signatures and byName are derived from the routines table at init.
var (
	signatures [len(routines)]Signature
	byName     = make(map[string]Op, len(routines))
)

func init() {
	for op := OpInit; int(op) < len(routines); op++ {
		r := &routines[op]
		a := ArgIndex{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
			-1, -1, -1, -1, -1, -1, -1, -1, -1, -1}
		for i, p := range r.params {
			if p.role != nil {
				*p.role(&a) = i
			}
		}
		signatures[op] = Signature{Arg: a, Params: r.params}
		byName[r.name] = op
	}
}

// SignatureOf returns the signature for op, or nil for unknown ops. The
// signature is the table's own and must not be modified.
func SignatureOf(op Op) *Signature {
	if op <= OpNone || int(op) >= len(signatures) {
		return nil
	}
	return &signatures[op]
}
