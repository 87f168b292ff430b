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

// proc states.
const (
	pBlocked = iota
	pRunning
	pDone
	pFailed
)

type proc struct {
	rank      int
	mach      *Machine
	state     int
	canRun    func() bool // nil: the proc only waits for its turn
	blockedOn mpi.Op
	err       *runErr

	// cond is the wait condition of the current block(); canRunBlocked is
	// the prebound "deadlock, stop or cond" predicate, built once per proc
	// so blocking does not allocate a fresh closure every time.
	cond          func() bool
	canRunBlocked func() bool

	// sem is the rank's turn token (capacity 1). Whoever holds the
	// scheduler turn hands it over by sending here; the rank parks on a
	// receive. One park/unpark per scheduler turn — there is no separate
	// scheduler goroutine to round-trip through.
	sem chan struct{}

	inited    bool
	finalized bool

	// resources owned by the rank
	activeRegions []region
	ownedComms    []int64
}

// reset returns a proc to the state of a freshly built one after a run,
// dropping every reference to the run and its program.
func (p *proc) reset() {
	*p = proc{rank: p.rank, mach: p.mach, sem: p.sem, canRunBlocked: p.canRunBlocked,
		activeRegions: clearSlice(p.activeRegions), ownedComms: p.ownedComms[:0]}
	m := p.mach
	m.prog = nil
	clear(m.globals)
	clear(m.globalRVs)
}

type region struct {
	obj    *MemObj
	off    int
	length int
	write  bool // the async op writes this buffer (recv-like)
	reqID  int64
	op     mpi.Op
	warned bool
}

// Runtime is the shared MPI world state of one simulated run, and the
// unit the free list in arena.go reuses across runs and programs. Only
// one rank executes at a time (cooperative scheduling), so no locking is
// needed and runs are deterministic.
type Runtime struct {
	memArena

	procs []*proc // this run's ranks, a prefix of built
	built []*proc // every proc built so far, machine and semaphore included

	// Cooperative cancellation: ctx is the caller's context, deadline the
	// wall-clock budget, stopErr the latched abort reason. Only the
	// goroutine currently holding the scheduler turn touches stopErr, and
	// turns are handed over through the per-proc semaphores, so no
	// locking is needed (same discipline as every other Runtime field).
	ctx      context.Context
	deadline time.Time
	stopErr  *runErr

	// Cooperative scheduler state: the round-robin cursor plus the
	// per-round progress/liveness flags the old scheduler loop kept on
	// its stack. Whoever yields the turn advances this state inline.
	schedIdx      int
	roundAlive    bool
	roundProgress bool
	mainSem       chan struct{} // wakes the caller when the run completes

	violations []Violation
	deadlock   bool

	sends []*message
	recvs []*recvPost
	colls []*collSlot
	reqs  map[int64]*request
	wins  map[int64]*window
	comms map[int64]int // comm handle -> size

	nextReq      int64
	nextWin      int64
	nextComm     int64
	nextType     int64
	dtypes       map[int64]bool // derived datatype committed state
	derivedSizes map[int64]int  // derived datatype element sizes

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

// RunCtx simulates the compiled program under a caller context. The run
// executes in a Runtime taken from the free list shared by every program
// and returned to it afterwards. Cancelling ctx (or exceeding
// cfg.WallBudget) aborts the run cooperatively: the scheduler's ordinary
// round-robin wakes every parked rank so it can observe the stop and
// exit, and the partial result is returned with Result.Canceled (ctx) or
// Result.Timeout (budget) set. RunCtx never leaks the rank goroutines,
// whatever state the simulated program is in.
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
	for _, pr := range rt.procs {
		go runRank(rt, pr)
	}
	// Donate the turn; it comes back through mainSem when the run is over
	// and every rank goroutine has passed its final handoff.
	rt.giveTurn()
	<-rt.mainSem
	res := rt.collect()
	rt.recycle()
	return res
}

// runRank is one rank's goroutine: wait for the first turn, execute the
// program, hand the turn on. Any interpreter panic becomes a crash
// verdict so a malformed program can never take down the host process.
func runRank(rt *Runtime, p *proc) {
	<-p.sem
	err := func() (err error) {
		defer func() {
			if r := recover(); r == errRunMemory {
				err = errRunMemory
			} else if r != nil {
				err = crashf("interpreter panic: %v", r)
			}
		}()
		return p.mach.run()
	}()
	if err != nil {
		if re, ok := err.(*runErr); ok {
			p.err = re
		} else {
			p.err = &runErr{kind: "crash", msg: err.Error()}
		}
		p.state = pFailed
	} else {
		p.state = pDone
	}
	rt.giveTurn()
}

// stopNow reports (and latches) whether the run must abort: the caller's
// context expired or the wall-clock budget ran out. It is only ever
// called by the goroutine currently holding the scheduler turn, so the
// latch needs no lock.
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

// giveTurn relinquishes the scheduler turn: the caller (a rank that just
// blocked, yielded or exited — or the main goroutine starting the run)
// advances the round-robin scan inline and wakes exactly one party: the
// next runnable rank, or the main goroutine when the run is over. This
// replaces the old scheduler goroutine's resume/yielded channel pair —
// a turn now costs one park/unpark instead of two channel round-trips.
//
// A deadlock or a stop needs no separate path: once either is latched,
// every parked rank's canRunBlocked holds, so the same scan wakes the
// parked ranks in rank order, and each unwinds through block's checks
// without parking again. The next round then finds no rank alive.
func (rt *Runtime) giveTurn() {
	for {
		if rt.schedIdx == 0 && !rt.deadlock {
			// Start of a round: latch a stop, once per round. A run that
			// is already unwinding a deadlock reports only the deadlock.
			rt.stopNow()
		}
		for rt.schedIdx < len(rt.procs) {
			p := rt.procs[rt.schedIdx]
			rt.schedIdx++
			if p.state != pBlocked {
				continue
			}
			rt.roundAlive = true
			if p.canRun == nil || p.canRun() {
				rt.roundProgress = true
				p.state = pRunning
				p.sem <- struct{}{}
				return
			}
		}
		// End of round.
		if !rt.roundAlive {
			rt.mainSem <- struct{}{}
			return
		}
		if !rt.roundProgress {
			// Global stall: genuine deadlock (every live rank blocked on a
			// condition no live rank can satisfy).
			rt.deadlock = true
			blockedOps := []string{}
			for _, p := range rt.procs {
				if p.state == pBlocked {
					blockedOps = append(blockedOps, fmt.Sprintf("rank %d in %s", p.rank, p.blockedOn))
				}
			}
			rt.report(Violation{Kind: VDeadlock, Rank: -1, Op: mpi.OpNone,
				Msg: "no progress possible: " + strings.Join(blockedOps, ", ")})
		}
		rt.schedIdx, rt.roundAlive, rt.roundProgress = 0, false, false
	}
}

// block suspends the calling rank until cond() holds (or a deadlock or
// stop is latched). It must only be called from a rank's own goroutine, during
// its turn.
func (rt *Runtime) block(p *proc, op mpi.Op, cond func() bool) error {
	for !cond() {
		if rt.deadlock {
			return &runErr{kind: "deadlock", msg: "blocked in " + op.String()}
		}
		if se := rt.stopNow(); se != nil {
			return se
		}
		p.blockedOn = op
		p.state = pBlocked
		p.cond = cond
		p.canRun = p.canRunBlocked
		rt.giveTurn()
		<-p.sem
		p.state = pRunning
	}
	return nil
}

// yieldTurn hands the scheduler one round without a blocking condition:
// used by MPI_Test so that spin-loops polling a request let peers progress.
func (rt *Runtime) yieldTurn(p *proc) {
	// Once a deadlock or stop is latched, keep the turn and let the
	// interpreter's step check unwind this rank.
	if rt.deadlock || rt.stopNow() != nil {
		return
	}
	p.blockedOn = mpi.OpTest
	p.state = pBlocked
	p.canRun = nil
	rt.giveTurn()
	<-p.sem
	p.state = pRunning
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
	for id, committed := range rt.dtypes {
		_ = id
		if committed {
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
// the interpreter uses for MPI_* calls.
func (rt *Runtime) dispatch(m *Machine, op mpi.Op, args []RV, in *ir.Instr) (RV, error) {
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
	rt.validateArgs(p, op, args)
	switch op {
	case mpi.OpFinalize:
		return rt.doFinalize(p)
	case mpi.OpCommRank, mpi.OpCommSize:
		return rt.doRankSize(p, op, args)
	case mpi.OpAbort:
		return RV{}, &runErr{kind: "exit", msg: "MPI_Abort"}
	case mpi.OpSend, mpi.OpSsend, mpi.OpBsend, mpi.OpRsend:
		return rt.doSend(p, op, args)
	case mpi.OpRecv:
		return rt.doRecv(p, op, args)
	case mpi.OpSendrecv:
		return rt.doSendrecv(p, args)
	case mpi.OpIsend, mpi.OpIssend, mpi.OpIrecv, mpi.OpSendInit, mpi.OpRecvInit:
		return rt.doImmediate(p, op, args)
	case mpi.OpWait:
		return rt.doWait(p, args)
	case mpi.OpWaitall:
		return rt.doWaitall(p, args)
	case mpi.OpTest:
		return rt.doTest(p, args)
	case mpi.OpRequestFree:
		return rt.doRequestFree(p, args)
	case mpi.OpStart, mpi.OpStartall:
		return rt.doStart(p, op, args)
	case mpi.OpGetCount:
		return rt.doGetCount(p, args)
	case mpi.OpBarrier, mpi.OpBcast, mpi.OpReduce, mpi.OpAllreduce,
		mpi.OpGather, mpi.OpScatter, mpi.OpAllgather, mpi.OpAlltoall,
		mpi.OpExscan, mpi.OpScan:
		return rt.doCollective(p, op, args)
	case mpi.OpIbarrier, mpi.OpIbcast, mpi.OpIallreduce:
		return rt.doICollective(p, op, args)
	case mpi.OpWinCreate:
		return rt.doWinCreate(p, args)
	case mpi.OpWinFree:
		return rt.doWinFree(p, args)
	case mpi.OpWinFence:
		return rt.doWinFence(p, args)
	case mpi.OpPut, mpi.OpGet, mpi.OpAccumulate:
		return rt.doRMAAccess(p, op, args)
	case mpi.OpWinLock, mpi.OpWinUnlock:
		return rt.doWinLock(p, op, args)
	case mpi.OpCommSplit, mpi.OpCommDup:
		return rt.doCommCreate(p, op, args)
	case mpi.OpCommFree:
		return rt.doCommFree(p, args)
	case mpi.OpTypeContiguous:
		return rt.doTypeContiguous(p, args)
	case mpi.OpTypeCommit, mpi.OpTypeFree:
		return rt.doTypeCommitFree(p, op, args)
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

func (rt *Runtime) doRankSize(p *proc, op mpi.Op, args []RV) (RV, error) {
	if len(args) < 2 || args[1].P == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op, Msg: "null output pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	val := int64(p.rank)
	if op == mpi.OpCommSize {
		size, ok := rt.comms[args[0].I]
		if !ok {
			size = len(rt.procs)
		}
		val = int64(size)
	}
	if err := args[1].P.Obj.store(args[1].P.Off, ir.I32, RV{I: val}); err != nil {
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
func (rt *Runtime) checkLocalAccess(rank int, ptr *Ptr, size int, isWrite bool, in *ir.Instr) {
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
