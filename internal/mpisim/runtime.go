package mpisim

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// eagerLimit is the standard-send eager threshold in bytes. A larger
// standard-mode send is synchronous: it completes only once the matching
// receive is posted, like a real MPI's rendezvous protocol.
const eagerLimit = 64

// Config parameterises a simulated run.
type Config struct {
	Ranks    int   // number of MPI processes (default 2)
	MaxSteps int64 // per-rank interpreter step budget (default 200k)

	// WallBudget caps the wall-clock time of the whole run; 0 means no
	// cap. A tripped budget surfaces as Result.Timeout, exactly like the
	// per-rank step budget, so harness timeouts look the same whether the
	// program burned steps or real time.
	WallBudget time.Duration
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 2
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 200_000
	}
	return c
}

// proc is one rank. Until it is done (returned from main or failed) it
// is parked; a fresh rank is parked on nothing, so it runs at its first
// turn.
type proc struct {
	rank int
	mach *Machine
	done bool
	wait wait // what a parked rank waits on
	err  *runErr

	inited    bool
	finalized bool

	// resources owned by the rank
	activeRegions []activeRegion
	ownedComms    []int64
}

// wait is what a rank parked in a blocking MPI call waits on, and what
// finishing the call needs: one of msg, recv, req, slot (Win_free and
// Win_fence carry win beside it) or win alone (Win_lock on target idx).
// With none set it is over: MPI_Test's yield of one round, a rank that
// has not started, or a Sendrecv from MPI_PROC_NULL.
type wait struct {
	op   mpi.Op
	msg  *message  // a send, until matched unless eager
	recv *recvPost // a receive, until completed
	req  *request  // MPI_Wait/Waitall, until the request completes
	slot *collSlot // a collective, until every member has joined
	win  *window
	sig  *mpi.Signature // decodes args
	args []RV           // the call's arguments
	idx  int            // MPI_Waitall: the index of req; MPI_Win_lock: the target
}

// ready reports whether the wait is over.
func (w *wait) ready() bool {
	switch {
	case w.slot != nil:
		return w.slot.done
	case w.req != nil:
		return w.req.completed()
	case w.msg != nil:
		return w.msg.matched || !w.msg.synchronous
	case w.recv != nil:
		return w.recv.completed
	case w.win != nil:
		return w.win.locks[w.idx] == 0
	}
	return true
}

// reset returns a proc to the state of a freshly built one after a run,
// dropping every reference to the run and its program.
func (p *proc) reset() {
	*p = proc{rank: p.rank, mach: p.mach,
		activeRegions: clearSlice(p.activeRegions), ownedComms: p.ownedComms[:0]}
	m := p.mach
	m.prog = nil
	clear(m.globals)
	clear(m.globalRVs)
}

type activeRegion struct {
	obj    *MemObj
	off    int
	length int
	write  bool // the async op writes this buffer (recv-like)
	reqID  int64
	op     mpi.Op
	warned bool
}

// Runtime is the shared MPI world state of one simulated run, and the
// unit the free list in arena.go reuses across runs and programs. A run
// executes on the goroutine that calls RunCtx, one rank at a time
// (cooperative scheduling), so no locking is needed and runs are
// deterministic.
type Runtime struct {
	memArena

	procs []*proc // this run's ranks, a prefix of built
	built []*proc // every proc built so far, machine included

	// Cooperative cancellation: ctx is the caller's context, deadline the
	// wall-clock budget, stopErr the latched abort reason.
	ctx      context.Context
	deadline time.Time
	stopErr  *runErr

	violations []Violation
	deadlock   bool

	sends []*message
	recvs []*recvPost
	colls []*collSlot
	coll  collScratch
	reqs  map[int64]*request
	wins  map[int64]*window
	comms map[int64]int // comm handle -> size

	nextReq  int64
	nextWin  int64
	nextComm int64
	nextType int64
	derived  map[int64]derivedType // by handle, freed ones included

	msgLog    []msgRecord
	wildRecvs []wildRecord
}

type msgRecord struct {
	src, dst, tag int
	comm          int64
}

type wildRecord struct {
	dst, tag int
	comm     int64
}

// Run simulates the module with the given configuration, compiling it
// first. Callers that simulate the same module repeatedly should Compile
// once and call Program.RunCtx.
func Run(mod *ir.Module, cfg Config) *Result {
	return Compile(mod).RunCtx(context.Background(), cfg)
}

// RunCtx simulates the compiled program under a caller context, on the
// calling goroutine. The run executes in a Runtime taken from the free
// list shared by every program and returned to it afterwards. Cancelling
// ctx (or exceeding cfg.WallBudget) aborts the run cooperatively: the
// scheduler's ordinary round-robin resumes every parked rank so it can
// observe the stop and fail, and the partial result is returned with
// Result.Canceled (ctx) or Result.Timeout (budget) set.
func (p *Program) RunCtx(ctx context.Context, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rt := takeRuntime(cfg.Ranks)
	rt.ctx = ctx
	rt.comms[mpi.CommWorld] = cfg.Ranks
	rt.comms[mpi.CommSelf] = 1
	rt.nextReq, rt.nextWin, rt.nextComm, rt.nextType = 1000, 5000, 200, 100
	if cfg.WallBudget > 0 {
		rt.deadline = time.Now().Add(cfg.WallBudget)
	}
	for _, pr := range rt.procs {
		pr.mach.reset(p, cfg.MaxSteps)
	}
	rt.drive()
	res := rt.collect()
	rt.recycle()
	return res
}

// stopNow reports (and latches) whether the run must abort: the caller's
// context expired or the wall-clock budget ran out.
func (rt *Runtime) stopNow() *runErr {
	if rt.stopErr != nil {
		return rt.stopErr
	}
	if err := rt.ctx.Err(); err != nil {
		rt.stopErr = &runErr{kind: "canceled", msg: "run canceled: " + err.Error()}
	} else if !rt.deadline.IsZero() && time.Now().After(rt.deadline) {
		rt.stopErr = &runErr{kind: "timeout", msg: "wall-clock budget exceeded"}
	}
	return rt.stopErr
}

// drive is the scheduler. Each round steps, in rank order, every parked
// rank whose wait is over, and the rank runs until it parks again,
// returns from main or fails. A round in which no parked rank can run is
// a deadlock. A deadlock or a stop needs no separate path: once either is
// latched every parked rank is stepped, await fails its call with the
// latched error, and the next round finds no rank left.
func (rt *Runtime) drive() {
	for {
		if !rt.deadlock {
			// Latch a stop, once per round. A run that is already
			// unwinding a deadlock reports only the deadlock.
			rt.stopNow()
		}
		alive, progress := false, false
		for _, p := range rt.procs {
			if p.done {
				continue
			}
			alive = true
			if rt.deadlock || rt.stopErr != nil || p.wait.ready() {
				progress = true
				rt.step(p)
			}
		}
		if !alive {
			return
		}
		if !progress {
			// Global stall: genuine deadlock (every live rank blocked on a
			// condition no live rank can satisfy).
			rt.deadlock = true
			blockedOps := []string{}
			for _, p := range rt.procs {
				if !p.done {
					blockedOps = append(blockedOps, fmt.Sprintf("rank %d in %s", p.rank, p.wait.op))
				}
			}
			rt.report(Violation{Kind: VDeadlock, Rank: -1, Op: mpi.OpNone,
				Msg: "no progress possible: " + strings.Join(blockedOps, ", ")})
		}
	}
}

// step runs rank p until it parks, returns from main or fails. Any
// interpreter panic, errRunMemory included, becomes the rank's crash
// verdict, so a malformed program can never take down the host process.
func (rt *Runtime) step(p *proc) {
	defer func() {
		if r := recover(); r == errRunMemory {
			p.fail(errRunMemory)
		} else if r != nil {
			p.fail(&runErr{kind: "crash", msg: fmt.Sprintf("interpreter panic: %v", r)})
		}
	}()
	switch err := p.mach.run(); err {
	case errPark:
	case nil:
		p.done = true
	default:
		p.fail(err.(*runErr))
	}
}

// fail ends rank p with err.
func (p *proc) fail(err *runErr) {
	p.err, p.done = err, true
	p.mach.unwind(0)
}

// errPark is how a blocking MPI call whose wait is not over leaves the
// interpreter: the rank stays parked on the call until its wait is over.
var errPark = &runErr{kind: "park", msg: "parked in a blocking MPI call"}

// park blocks p's MPI call on w; a parked call resumes through here with
// its own wait. A call whose wait is over finishes. Otherwise it fails
// with a latched deadlock or stop, or the rank parks (errPark).
func (rt *Runtime) park(p *proc, w wait) (RV, error) {
	p.wait = w
	if !w.ready() {
		if rt.deadlock {
			return RV{}, &runErr{kind: "deadlock", msg: "blocked in " + p.wait.op.String()}
		}
		if se := rt.stopNow(); se != nil {
			return RV{}, se
		}
		return RV{}, errPark
	}
	return rt.finish(p)
}

// finish completes p's call once its wait is over: the second half of
// the blocking ops whose first half parked.
func (rt *Runtime) finish(p *proc) (RV, error) {
	w := &p.wait
	switch w.op {
	case mpi.OpWait:
		rt.completeRequest(p, w.req, w.args[w.sig.Arg.Request].P)
	case mpi.OpWaitall:
		base := w.args[w.sig.Arg.Request].P
		rt.completeRequest(p, w.req, &Ptr{Obj: base.Obj, Off: base.Off + 8*w.idx})
		return rt.doWaitall(p, w.sig, w.args, w.idx+1)
	case mpi.OpCommSplit, mpi.OpCommDup:
		return rt.commCreated(p, w)
	case mpi.OpWinCreate:
		return rt.winCreated(p, w)
	case mpi.OpWinFree:
		w.win.freed = true
		ptr := w.args[w.sig.Arg.Win].P
		_ = ptr.Obj.store(ptr.Off, ir.I64, RV{I: 0})
	case mpi.OpWinFence:
		// The first rank out of the fence toggles the epoch.
		if w.slot.newComm == 0 {
			w.slot.newComm = 1
			w.win.open = !w.win.open
			if !w.win.open {
				w.win.accesses = w.win.accesses[:0] // epoch closed: conflicts reset
			}
		}
	case mpi.OpWinLock:
		w.win.locks[w.idx] = p.rank + 1
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) report(v Violation) {
	rt.violations = append(rt.violations, v)
}

// reportOnce records v only if no violation of the same kind+rank exists.
func (rt *Runtime) reportOnce(v Violation) {
	for _, e := range rt.violations {
		if e.Kind == v.Kind && e.Rank == v.Rank && e.Op == v.Op {
			return
		}
	}
	rt.report(v)
}

func (rt *Runtime) collect() *Result {
	res := &Result{Deadlock: rt.deadlock}
	if rt.stopErr != nil {
		switch rt.stopErr.kind {
		case "timeout":
			res.Timeout = true
			res.WallTimeout = true
		case "canceled":
			res.Canceled = true
		}
	}
	var out strings.Builder
	for _, p := range rt.procs {
		out.Write(p.mach.out)
		res.Steps += p.mach.steps
		if p.mach.outTruncated {
			res.OutputTruncated = true
		}
		if p.err != nil {
			switch p.err.kind {
			case "timeout":
				res.Timeout = true
			case "canceled":
				res.Canceled = true
			case "crash":
				res.Crashed = true
				if res.CrashMsg == "" {
					res.CrashMsg = fmt.Sprintf("rank %d: %s", p.rank, p.err.msg)
				}
			}
		}
		if p.inited && !p.finalized && p.err == nil && !rt.deadlock && rt.stopErr == nil {
			rt.report(Violation{Kind: VCallOrdering, Rank: p.rank, Op: mpi.OpFinalize,
				Msg: "MPI_Finalize never called"})
		}
	}
	rt.analyzeRaces()
	// A canceled run was cut short by the harness, not the program: its
	// half-finished requests and unmatched sends are not leaks.
	if !res.Canceled {
		rt.finalLeakCheck()
	}
	res.Output = out.String()
	res.Violations = rt.violations
	return res
}

// analyzeRaces flags wildcard receives for which the message log shows two
// or more candidate senders — the dynamic signature of a message race.
func (rt *Runtime) analyzeRaces() {
	for _, w := range rt.wildRecvs {
		srcs := map[int]bool{}
		for _, m := range rt.msgLog {
			if m.dst == w.dst && m.comm == w.comm &&
				(w.tag == mpi.AnyTag || w.tag == m.tag) {
				srcs[m.src] = true
			}
		}
		if len(srcs) > 1 {
			rt.reportOnce(Violation{Kind: VMessageRace, Rank: w.dst, Op: mpi.OpRecv,
				Msg: fmt.Sprintf("wildcard receive has %d candidate senders", len(srcs))})
			return
		}
	}
}

// finalLeakCheck reports unfreed resources and unmatched communication
// after the run has terminated.
func (rt *Runtime) finalLeakCheck() {
	ids := make([]int64, 0, len(rt.reqs))
	for id := range rt.reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := rt.reqs[id]
		if r.freed {
			continue
		}
		if r.persistent || !r.completedAndWaited {
			rt.reportOnce(Violation{Kind: VResourceLeak, Rank: r.owner, Op: r.op,
				Msg: "request never completed or freed"})
		}
	}
	winIDs := make([]int64, 0, len(rt.wins))
	for id := range rt.wins {
		winIDs = append(winIDs, id)
	}
	sort.Slice(winIDs, func(i, j int) bool { return winIDs[i] < winIDs[j] })
	for _, id := range winIDs {
		if w := rt.wins[id]; !w.freed {
			rt.reportOnce(Violation{Kind: VResourceLeak, Rank: w.owner, Op: mpi.OpWinCreate,
				Msg: "window never freed"})
		}
	}
	for _, t := range rt.derived {
		if t.committed && !t.freed {
			rt.reportOnce(Violation{Kind: VResourceLeak, Rank: -1, Op: mpi.OpTypeCommit,
				Msg: "derived datatype never freed"})
		}
	}
	for _, m := range rt.sends {
		if !m.matched {
			rt.reportOnce(Violation{Kind: VCallOrdering, Rank: m.src, Op: mpi.OpSend,
				Msg: fmt.Sprintf("send to rank %d tag %d never received", m.dst, m.tag)})
		}
	}
	for _, r := range rt.recvs {
		if !r.completed {
			rt.reportOnce(Violation{Kind: VCallOrdering, Rank: r.dst, Op: mpi.OpRecv,
				Msg: "receive never matched"})
		}
	}
}

// dispatch routes an MPI call to its handler. It is the single entry point
// the interpreter uses for MPI_* calls; sig is op's row, and args has
// its arity.
func (rt *Runtime) dispatch(m *Machine, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	p := m.proc
	if op == mpi.OpInit {
		if p.inited {
			rt.report(Violation{Kind: VCallOrdering, Rank: p.rank, Op: op, Msg: "MPI_Init called twice"})
		}
		p.inited = true
		return RV{I: mpi.Success}, nil
	}
	if !p.inited {
		rt.report(Violation{Kind: VCallOrdering, Rank: p.rank, Op: op,
			Msg: op.String() + " before MPI_Init"})
	}
	if p.finalized {
		rt.report(Violation{Kind: VCallOrdering, Rank: p.rank, Op: op,
			Msg: op.String() + " after MPI_Finalize"})
	}
	rt.validateArgs(p, op, sig, args)
	switch op {
	case mpi.OpFinalize:
		return rt.doFinalize(p)
	case mpi.OpCommRank, mpi.OpCommSize:
		return rt.doRankSize(p, op, sig, args)
	case mpi.OpAbort:
		return RV{}, &runErr{kind: "exit", msg: "MPI_Abort"}
	case mpi.OpSend, mpi.OpSsend, mpi.OpBsend, mpi.OpRsend:
		return rt.doSend(p, op, sig, args)
	case mpi.OpRecv:
		return rt.doRecv(p, op, sig, args)
	case mpi.OpSendrecv:
		return rt.doSendrecv(p, sig, args)
	case mpi.OpIsend, mpi.OpIssend, mpi.OpIrecv, mpi.OpSendInit, mpi.OpRecvInit:
		return rt.doImmediate(p, op, sig, args)
	case mpi.OpWait:
		return rt.doWait(p, sig, args)
	case mpi.OpWaitall:
		return rt.doWaitall(p, sig, args, 0)
	case mpi.OpTest:
		return rt.doTest(p, sig, args)
	case mpi.OpRequestFree:
		return rt.doRequestFree(p, sig, args)
	case mpi.OpStart, mpi.OpStartall:
		return rt.doStart(p, op, sig, args)
	case mpi.OpGetCount:
		return rt.doGetCount(p, sig, args)
	case mpi.OpBarrier, mpi.OpBcast, mpi.OpReduce, mpi.OpAllreduce,
		mpi.OpGather, mpi.OpScatter, mpi.OpAllgather, mpi.OpAlltoall,
		mpi.OpExscan, mpi.OpScan, mpi.OpCommSplit, mpi.OpCommDup, mpi.OpWinCreate:
		return rt.doCollective(p, op, sig, args)
	case mpi.OpIbarrier, mpi.OpIbcast, mpi.OpIallreduce:
		return rt.doICollective(p, op, sig, args)
	case mpi.OpWinFree:
		return rt.doWinFree(p, sig, args)
	case mpi.OpWinFence:
		return rt.doWinFence(p, sig, args)
	case mpi.OpPut, mpi.OpGet, mpi.OpAccumulate:
		return rt.doRMAAccess(p, op, sig, args)
	case mpi.OpWinLock, mpi.OpWinUnlock:
		return rt.doWinLock(p, op, sig, args)
	case mpi.OpCommFree:
		return rt.doCommFree(p, sig, args)
	case mpi.OpTypeContiguous:
		return rt.doTypeContiguous(p, sig, args)
	case mpi.OpTypeCommit, mpi.OpTypeFree:
		return rt.doTypeCommitFree(p, op, sig, args)
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doFinalize(p *proc) (RV, error) {
	if p.finalized {
		rt.report(Violation{Kind: VCallOrdering, Rank: p.rank, Op: mpi.OpFinalize,
			Msg: "MPI_Finalize called twice"})
		return RV{I: mpi.Success}, nil
	}
	p.finalized = true
	// Leak checks local to the rank.
	for _, reg := range p.activeRegions {
		rt.reportOnce(Violation{Kind: VResourceLeak, Rank: p.rank, Op: reg.op,
			Msg: "nonblocking operation still pending at MPI_Finalize"})
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) doRankSize(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	out := args[sig.Arg.Buf].P
	if out == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null output pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	val := int64(p.rank)
	if op == mpi.OpCommSize {
		size, ok := rt.comms[args[sig.Arg.Comm].I]
		if !ok {
			size = len(rt.procs)
		}
		val = int64(size)
	}
	if err := out.Obj.store(out.Off, ir.I32, RV{I: val}); err != nil {
		return RV{}, err
	}
	return RV{I: mpi.Success}, nil
}

// checkLocalAccess is invoked by the interpreter on every load/store so the
// runtime can detect local-concurrency violations (touching a buffer that a
// pending nonblocking operation owns) and RMA local accesses during open
// epochs. The common case — no pending nonblocking operation and no RMA
// window anywhere — must cost one branch, since this guards every memory
// access the simulated program makes.
func (rt *Runtime) checkLocalAccess(rank int, ptr *Ptr, size int, isWrite bool) {
	p := rt.procs[rank]
	if len(p.activeRegions) == 0 && len(rt.wins) == 0 {
		return
	}
	for i := range p.activeRegions {
		reg := &p.activeRegions[i]
		if reg.warned || reg.obj != ptr.Obj {
			continue
		}
		if ptr.Off+size <= reg.off || reg.off+reg.length <= ptr.Off {
			continue
		}
		// Reading a send buffer is legal; everything else races.
		if !isWrite && !reg.write {
			continue
		}
		reg.warned = true
		rt.report(Violation{Kind: VLocalConc, Rank: rank, Op: reg.op,
			Msg: "buffer accessed while a nonblocking operation is pending"})
	}
	rt.checkRMALocalAccess(rank, ptr, size, isWrite)
}
