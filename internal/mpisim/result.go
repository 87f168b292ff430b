// Package mpisim is a deterministic MPI runtime simulator. It executes IR
// modules produced by the front-end with one simulated process (rank) per
// virtual MPI process, using a cooperative round-robin scheduler so runs
// are fully reproducible. The runtime implements the MPI subset of the
// benchmarks — blocking and nonblocking point-to-point, persistent
// requests, collectives, and one-sided epochs — and performs the dynamic
// correctness checks (argument validation, type matching, deadlock
// detection, request/epoch lifecycle, race detection, leak checking) that
// the paper's dynamic comparison tools (ITAC, MUST) perform.
package mpisim

import (
	"fmt"

	"mpidetect/internal/mpi"
)

// ViolationKind classifies a dynamic error found by the runtime.
type ViolationKind int

// The dynamic error kinds reported by the simulator.
const (
	VNone ViolationKind = iota
	VInvalidParam
	VTypeMismatch   // send/recv or collective datatype mismatch
	VTruncation     // receive buffer smaller than the message
	VRootMismatch   // collective root disagreement
	VOpMismatch     // collective reduction-op disagreement
	VDeadlock       // no runnable rank and unfinished work
	VMessageRace    // wildcard receive with multiple possible matches
	VRequestLife    // request lifecycle misuse
	VEpochLife      // RMA epoch misuse
	VLocalConc      // local buffer touched while an async op is pending
	VGlobalConc     // conflicting RMA accesses in the same epoch
	VResourceLeak   // request/window/datatype/comm leaked at finalize
	VCallOrdering   // MPI call outside Init/Finalize, missing calls
	VBufferOverflow // buffer access out of bounds
)

var vkindNames = map[ViolationKind]string{
	VNone:           "none",
	VInvalidParam:   "invalid-parameter",
	VTypeMismatch:   "type-mismatch",
	VTruncation:     "truncation",
	VRootMismatch:   "root-mismatch",
	VOpMismatch:     "op-mismatch",
	VDeadlock:       "deadlock",
	VMessageRace:    "message-race",
	VRequestLife:    "request-lifecycle",
	VEpochLife:      "epoch-lifecycle",
	VLocalConc:      "local-concurrency",
	VGlobalConc:     "global-concurrency",
	VResourceLeak:   "resource-leak",
	VCallOrdering:   "call-ordering",
	VBufferOverflow: "buffer-overflow",
}

// String returns a stable name for the kind.
func (k ViolationKind) String() string {
	if s, ok := vkindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Violation is one dynamic error instance.
type Violation struct {
	Kind ViolationKind
	Rank int    // reporting rank, -1 for global findings
	Op   mpi.Op // operation involved (OpNone if not applicable)
	Msg  string
}

// String formats the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("[rank %d] %s at %s: %s", v.Rank, v.Kind, v.Op, v.Msg)
}

// Result summarises a simulated run.
type Result struct {
	Violations []Violation
	Deadlock   bool
	Timeout    bool // a rank exceeded its step budget or the wall-clock budget
	// WallTimeout marks a Timeout caused by Config.WallBudget. Unlike the
	// deterministic step budget, wall-clock exhaustion depends on host
	// load, so callers that cache verdicts must not treat it as a
	// property of the program.
	WallTimeout bool
	Canceled    bool // the caller's context expired before the run finished
	Crashed     bool // interpreter fault (runtime error in the program)
	CrashMsg    string
	Output      string // interleaved printf output
	// OutputTruncated reports that at least one rank's printf stream hit
	// the per-rank output cap (maxRankOutput) and was cut at a truncation
	// marker, so a simulated printf loop cannot balloon server memory.
	OutputTruncated bool
	// Steps is the total interpreter step count summed over all ranks — a
	// deterministic measure of how much simulated work the run performed.
	Steps int64
}

// Erroneous reports whether the run surfaced any dynamic problem. A
// canceled run is deliberately not erroneous: cancellation is a harness
// condition, not a property of the program, and callers on the serving
// path must check Canceled explicitly and treat the run as inconclusive.
func (r *Result) Erroneous() bool {
	return len(r.Violations) > 0 || r.Deadlock || r.Timeout || r.Crashed
}
