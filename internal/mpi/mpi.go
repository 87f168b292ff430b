// Package mpi defines the MPI API model shared by every layer of the
// reproduction: the set of MPI operations that can appear in generated
// programs, their signatures, datatypes, reduction operators, and the
// semantic metadata (blocking behaviour, collectiveness, which argument is
// the tag, ...) that the front-end, the runtime simulator, the static
// verifiers and the embedding layers all consult.
//
// The model intentionally covers the MPI subset exercised by the MPI Bugs
// Initiative and MPI-CorrBench: blocking and nonblocking point-to-point,
// persistent communication, collectives, and one-sided (RMA) epochs.
package mpi

import "fmt"

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

var opNames = map[Op]string{
	OpInit:           "MPI_Init",
	OpFinalize:       "MPI_Finalize",
	OpCommRank:       "MPI_Comm_rank",
	OpCommSize:       "MPI_Comm_size",
	OpSend:           "MPI_Send",
	OpSsend:          "MPI_Ssend",
	OpBsend:          "MPI_Bsend",
	OpRsend:          "MPI_Rsend",
	OpRecv:           "MPI_Recv",
	OpSendrecv:       "MPI_Sendrecv",
	OpIsend:          "MPI_Isend",
	OpIssend:         "MPI_Issend",
	OpIrecv:          "MPI_Irecv",
	OpWait:           "MPI_Wait",
	OpWaitall:        "MPI_Waitall",
	OpTest:           "MPI_Test",
	OpRequestFree:    "MPI_Request_free",
	OpSendInit:       "MPI_Send_init",
	OpRecvInit:       "MPI_Recv_init",
	OpStart:          "MPI_Start",
	OpStartall:       "MPI_Startall",
	OpBarrier:        "MPI_Barrier",
	OpBcast:          "MPI_Bcast",
	OpReduce:         "MPI_Reduce",
	OpAllreduce:      "MPI_Allreduce",
	OpGather:         "MPI_Gather",
	OpScatter:        "MPI_Scatter",
	OpAllgather:      "MPI_Allgather",
	OpAlltoall:       "MPI_Alltoall",
	OpExscan:         "MPI_Exscan",
	OpScan:           "MPI_Scan",
	OpIbarrier:       "MPI_Ibarrier",
	OpIbcast:         "MPI_Ibcast",
	OpIallreduce:     "MPI_Iallreduce",
	OpWinCreate:      "MPI_Win_create",
	OpWinFree:        "MPI_Win_free",
	OpWinFence:       "MPI_Win_fence",
	OpPut:            "MPI_Put",
	OpGet:            "MPI_Get",
	OpAccumulate:     "MPI_Accumulate",
	OpWinLock:        "MPI_Win_lock",
	OpWinUnlock:      "MPI_Win_unlock",
	OpCommSplit:      "MPI_Comm_split",
	OpCommFree:       "MPI_Comm_free",
	OpCommDup:        "MPI_Comm_dup",
	OpTypeContiguous: "MPI_Type_contiguous",
	OpTypeCommit:     "MPI_Type_commit",
	OpTypeFree:       "MPI_Type_free",
	OpGetCount:       "MPI_Get_count",
	OpAbort:          "MPI_Abort",
}

// String returns the canonical MPI function name (e.g. "MPI_Send").
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("MPI_Op(%d)", int(o))
}

// FromName maps an MPI function name back to its Op; ok reports whether the
// name is a known MPI operation.
func FromName(name string) (Op, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// Class groups operations by the way they interact with the runtime.
type Class int

// Operation classes.
const (
	ClassEnv        Class = iota // Init / Finalize / rank / size
	ClassP2P                     // blocking point-to-point
	ClassNonBlock                // nonblocking point-to-point
	ClassPersistent              // persistent requests
	ClassRequest                 // request completion (wait/test/free)
	ClassCollective              // collectives
	ClassRMA                     // one-sided
	ClassComm                    // communicator management
	ClassType                    // datatype management
	ClassOther
)

// Classify returns the class of op.
func Classify(op Op) Class {
	switch op {
	case OpInit, OpFinalize, OpCommRank, OpCommSize, OpAbort:
		return ClassEnv
	case OpSend, OpSsend, OpBsend, OpRsend, OpRecv, OpSendrecv:
		return ClassP2P
	case OpIsend, OpIssend, OpIrecv:
		return ClassNonBlock
	case OpSendInit, OpRecvInit, OpStart, OpStartall:
		return ClassPersistent
	case OpWait, OpWaitall, OpTest, OpRequestFree, OpGetCount:
		return ClassRequest
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpScatter,
		OpAllgather, OpAlltoall, OpExscan, OpScan, OpIbarrier, OpIbcast, OpIallreduce:
		return ClassCollective
	case OpWinCreate, OpWinFree, OpWinFence, OpPut, OpGet, OpAccumulate,
		OpWinLock, OpWinUnlock:
		return ClassRMA
	case OpCommSplit, OpCommFree, OpCommDup:
		return ClassComm
	case OpTypeContiguous, OpTypeCommit, OpTypeFree:
		return ClassType
	}
	return ClassOther
}

// IsCollective reports whether op is a (possibly nonblocking) collective.
func IsCollective(op Op) bool { return Classify(op) == ClassCollective }

// IsBlocking reports whether the call can block waiting for a remote peer.
func IsBlocking(op Op) bool {
	switch op {
	case OpSend, OpSsend, OpRecv, OpSendrecv, OpWait, OpWaitall,
		OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpScatter,
		OpAllgather, OpAlltoall, OpExscan, OpScan, OpWinFence:
		return true
	}
	return false
}

// StartsRequest reports whether op produces an MPI_Request that must later
// be completed (wait/test) or freed.
func StartsRequest(op Op) bool {
	switch op {
	case OpIsend, OpIssend, OpIrecv, OpSendInit, OpRecvInit, OpIbarrier, OpIbcast, OpIallreduce:
		return true
	}
	return false
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

var dtNames = map[Datatype]string{
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
	if s, ok := dtNames[d]; ok {
		return s
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

var roNames = map[ReduceOp]string{
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
	if s, ok := roNames[r]; ok {
		return s
	}
	return fmt.Sprintf("MPI_Op(%d)", int(r))
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
}

func noArgs() ArgIndex {
	return ArgIndex{Buf: -1, Count: -1, Datatype: -1, Peer: -1, Tag: -1, Comm: -1, Request: -1, Root: -1, RedOp: -1, Win: -1}
}

// Signature describes an MPI call's arity and semantic argument positions.
type Signature struct {
	Op     Op
	NArgs  int
	Arg    ArgIndex
	Blocks bool
}

var signatures = map[Op]Signature{}

func sig(op Op, n int, mut func(*ArgIndex)) {
	a := noArgs()
	if mut != nil {
		mut(&a)
	}
	signatures[op] = Signature{Op: op, NArgs: n, Arg: a, Blocks: IsBlocking(op)}
}

func init() {
	sig(OpInit, 2, nil)
	sig(OpFinalize, 0, nil)
	sig(OpCommRank, 2, func(a *ArgIndex) { a.Comm = 0; a.Buf = 1 })
	sig(OpCommSize, 2, func(a *ArgIndex) { a.Comm = 0; a.Buf = 1 })
	sig(OpAbort, 2, func(a *ArgIndex) { a.Comm = 0 })

	p2p := func(a *ArgIndex) {
		a.Buf, a.Count, a.Datatype, a.Peer, a.Tag, a.Comm = 0, 1, 2, 3, 4, 5
	}
	sig(OpSend, 6, p2p)
	sig(OpSsend, 6, p2p)
	sig(OpBsend, 6, p2p)
	sig(OpRsend, 6, p2p)
	sig(OpRecv, 7, func(a *ArgIndex) { p2p(a) }) // + status
	sig(OpSendrecv, 12, func(a *ArgIndex) {
		a.Buf, a.Count, a.Datatype, a.Peer, a.Tag, a.Comm = 0, 1, 2, 3, 4, 10
	})

	nb := func(a *ArgIndex) {
		a.Buf, a.Count, a.Datatype, a.Peer, a.Tag, a.Comm, a.Request = 0, 1, 2, 3, 4, 5, 6
	}
	sig(OpIsend, 7, nb)
	sig(OpIssend, 7, nb)
	sig(OpIrecv, 7, nb)
	sig(OpSendInit, 7, nb)
	sig(OpRecvInit, 7, nb)

	sig(OpWait, 2, func(a *ArgIndex) { a.Request = 0 })
	sig(OpWaitall, 3, func(a *ArgIndex) { a.Count = 0; a.Request = 1 })
	sig(OpTest, 3, func(a *ArgIndex) { a.Request = 0 })
	sig(OpRequestFree, 1, func(a *ArgIndex) { a.Request = 0 })
	sig(OpStart, 1, func(a *ArgIndex) { a.Request = 0 })
	sig(OpStartall, 2, func(a *ArgIndex) { a.Count = 0; a.Request = 1 })
	sig(OpGetCount, 3, func(a *ArgIndex) { a.Datatype = 1; a.Buf = 2 })

	sig(OpBarrier, 1, func(a *ArgIndex) { a.Comm = 0 })
	sig(OpBcast, 5, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.Root, a.Comm = 0, 1, 2, 3, 4 })
	sig(OpReduce, 7, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.RedOp, a.Root, a.Comm = 0, 2, 3, 4, 5, 6 })
	sig(OpAllreduce, 6, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.RedOp, a.Comm = 0, 2, 3, 4, 5 })
	coll2buf := func(a *ArgIndex) {
		a.Buf, a.Count, a.Datatype, a.Root, a.Comm = 0, 1, 2, 6, 7
	}
	sig(OpGather, 8, coll2buf)
	sig(OpScatter, 8, coll2buf)
	sig(OpAllgather, 7, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.Comm = 0, 1, 2, 6 })
	sig(OpAlltoall, 7, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.Comm = 0, 1, 2, 6 })
	sig(OpExscan, 6, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.RedOp, a.Comm = 0, 2, 3, 4, 5 })
	sig(OpScan, 6, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.RedOp, a.Comm = 0, 2, 3, 4, 5 })
	sig(OpIbarrier, 2, func(a *ArgIndex) { a.Comm = 0; a.Request = 1 })
	sig(OpIbcast, 6, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.Root, a.Comm, a.Request = 0, 1, 2, 3, 4, 5 })
	sig(OpIallreduce, 7, func(a *ArgIndex) { a.Buf, a.Count, a.Datatype, a.RedOp, a.Comm, a.Request = 0, 2, 3, 4, 5, 6 })

	sig(OpWinCreate, 6, func(a *ArgIndex) { a.Buf = 0; a.Comm = 4; a.Win = 5 })
	sig(OpWinFree, 1, func(a *ArgIndex) { a.Win = 0 })
	sig(OpWinFence, 2, func(a *ArgIndex) { a.Win = 1 })
	rma := func(a *ArgIndex) {
		a.Buf, a.Count, a.Datatype, a.Peer, a.Win = 0, 1, 2, 3, 7
	}
	sig(OpPut, 8, rma)
	sig(OpGet, 8, rma)
	sig(OpAccumulate, 9, func(a *ArgIndex) { rma(a); a.RedOp = 7; a.Win = 8 })
	sig(OpWinLock, 4, func(a *ArgIndex) { a.Peer = 1; a.Win = 3 })
	sig(OpWinUnlock, 2, func(a *ArgIndex) { a.Peer = 0; a.Win = 1 })

	sig(OpCommSplit, 4, func(a *ArgIndex) { a.Comm = 0 })
	// Comm_free takes a *pointer* to the handle, so it has no comm-value
	// argument position.
	sig(OpCommFree, 1, nil)
	sig(OpCommDup, 2, func(a *ArgIndex) { a.Comm = 0 })
	sig(OpTypeContiguous, 3, func(a *ArgIndex) { a.Count = 0; a.Datatype = 1 })
	sig(OpTypeCommit, 1, func(a *ArgIndex) { a.Datatype = 0 })
	sig(OpTypeFree, 1, func(a *ArgIndex) { a.Datatype = 0 })
}

// SignatureOf returns the signature for op; ok is false for unknown ops.
func SignatureOf(op Op) (Signature, bool) {
	s, ok := signatures[op]
	return s, ok
}
