package mpisim

import (
	"fmt"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// window is an RMA window: one memory region per rank of the communicator.
type window struct {
	id    int64
	owner int
	comm  int64
	bases []*Ptr
	sizes []int
	freed bool
	open  bool        // a fence epoch is open
	locks map[int]int // target rank -> locking rank + 1 (0 = unlocked)

	accesses []rmaAccess
}

type rmaAccess struct {
	origin int
	target int
	off    int
	length int
	write  bool
	op     mpi.Op
}

// winCreated finishes MPI_Win_create, a collective in which every rank
// contributes its base and size, once every rank has joined: the first
// rank out mints the window.
func (rt *Runtime) winCreated(p *proc, wt *wait) (RV, error) {
	args, slot, a := wt.args, wt.slot, &wt.sig.Arg
	if slot.newComm == 0 {
		rt.nextWin++
		slot.newComm = rt.nextWin
		w := &window{id: slot.newComm, owner: p.rank, comm: args[a.Comm].I,
			bases: make([]*Ptr, len(rt.procs)), sizes: make([]int, len(rt.procs)),
			locks: map[int]int{}}
		for rank, m := range slot.members {
			w.bases[rank] = m.args[a.Buf].P
			w.sizes[rank] = int(m.args[a.Size].I)
		}
		rt.wins[w.id] = w
	}
	if ptr := args[a.Win].P; ptr != nil {
		if err := ptr.Obj.store(ptr.Off, ir.I64, RV{I: slot.newComm}); err != nil {
			return RV{}, err
		}
	}
	return RV{I: mpi.Success}, nil
}

func (rt *Runtime) winByHandle(p *proc, op mpi.Op, h int64) *window {
	w, ok := rt.wins[h]
	if !ok {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("invalid window handle %d", h)})
		return nil
	}
	if w.freed {
		rt.report(Violation{Kind: VEpochLife, Rank: p.rank, Op: op, Msg: "operation on freed window"})
		return nil
	}
	return w
}

func (rt *Runtime) doWinFree(p *proc, sig *mpi.Signature, args []RV) (RV, error) {
	ptr := args[sig.Arg.Win].P
	if ptr == nil {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: mpi.OpWinFree, Msg: "null window pointer"})
		return RV{I: mpi.ErrOther}, nil
	}
	hv, err := ptr.Obj.load(ptr.Off, ir.I64)
	if err != nil {
		return RV{}, err
	}
	w := rt.winByHandle(p, mpi.OpWinFree, hv.I)
	if w == nil {
		return RV{I: mpi.ErrOther}, nil
	}
	if w.open {
		rt.reportOnce(Violation{Kind: VEpochLife, Rank: p.rank, Op: mpi.OpWinFree,
			Msg: "window freed while an epoch is open"})
	}
	slot := rt.joinCollective(p, mpi.OpWinFree, sig, w.comm, args)
	return rt.park(p, wait{op: mpi.OpWinFree, slot: slot, win: w, sig: sig, args: args})
}

func (rt *Runtime) doWinFence(p *proc, sig *mpi.Signature, args []RV) (RV, error) {
	w := rt.winByHandle(p, mpi.OpWinFence, args[sig.Arg.Win].I)
	if w == nil {
		return RV{I: mpi.ErrOther}, nil
	}
	slot := rt.joinCollective(p, mpi.OpWinFence, sig, w.comm, args)
	return rt.park(p, wait{op: mpi.OpWinFence, slot: slot, win: w})
}

// doRMAAccess implements Put / Get / Accumulate.
func (rt *Runtime) doRMAAccess(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	a := &sig.Arg
	w := rt.winByHandle(p, op, args[a.Win].I)
	if w == nil {
		return RV{I: mpi.ErrOther}, nil
	}
	target := int(args[a.Peer].I)
	if target < 0 || target >= len(rt.procs) {
		rt.report(Violation{Kind: VInvalidParam, Rank: p.rank, Op: op,
			Msg: fmt.Sprintf("invalid target rank %d", target)})
		return RV{I: mpi.ErrOther}, nil
	}
	locked := w.locks[target] == p.rank+1
	if !w.open && !locked {
		rt.reportOnce(Violation{Kind: VEpochLife, Rank: p.rank, Op: op,
			Msg: "RMA access outside any epoch"})
	}
	origin := args[a.Buf].P
	count := int(args[a.Count].I)
	dt := mpi.Datatype(args[a.Datatype].I)
	d := rt.moving(dt)
	n := count * d.size
	tOff := int(args[a.Disp].I) * rt.moving(mpi.Datatype(args[a.TargetDatatype].I)).size

	base := w.bases[target]
	if base == nil {
		return RV{I: mpi.ErrOther}, nil
	}
	if tOff+n > w.sizes[target] {
		rt.report(Violation{Kind: VBufferOverflow, Rank: p.rank, Op: op,
			Msg: "RMA access beyond the target window"})
		n = w.sizes[target] - tOff
		if n < 0 {
			n = 0
		}
	}
	write := op == mpi.OpPut || op == mpi.OpAccumulate
	rt.recordRMA(w, rmaAccess{origin: p.rank, target: target, off: tOff, length: n, write: write, op: op})

	if origin == nil || n <= 0 {
		return RV{I: mpi.Success}, nil
	}
	tPtr := &Ptr{Obj: base.Obj, Off: base.Off + tOff}
	switch op {
	case mpi.OpPut:
		k := clampLen(tPtr, clampLen(origin, n))
		copy(tPtr.Obj.Bytes[tPtr.Off:tPtr.Off+k], origin.Obj.Bytes[origin.Off:origin.Off+k])
	case mpi.OpGet:
		k := clampLen(origin, clampLen(tPtr, n))
		copy(origin.Obj.Bytes[origin.Off:origin.Off+k], tPtr.Obj.Bytes[tPtr.Off:tPtr.Off+k])
	case mpi.OpAccumulate:
		rop := mpi.ReduceOp(args[a.RedOp].I)
		elem, sz := d.elem, d.size
		if dt == mpi.DTUnsigned {
			elem = ir.F64 // divergence from MPI: Accumulate reads MPI_UNSIGNED as float; Reduce reads it as int
		}
		for i := 0; i < count; i++ {
			so, to := origin.Off+i*sz, tPtr.Off+i*sz
			if so+sz > len(origin.Obj.Bytes) || to+sz > len(tPtr.Obj.Bytes) {
				break
			}
			x, _ := tPtr.Obj.load(to, elem)
			y, _ := origin.Obj.load(so, elem)
			_ = tPtr.Obj.store(to, elem, reduceRV(rop, elem, x, y))
		}
	}
	return RV{I: mpi.Success}, nil
}

// recordRMA adds an epoch access and reports conflicts with concurrent
// accesses from other origins (global concurrency errors).
func (rt *Runtime) recordRMA(w *window, a rmaAccess) {
	for _, b := range w.accesses {
		if b.target != a.target || b.origin == a.origin {
			continue
		}
		if a.off+a.length <= b.off || b.off+b.length <= a.off {
			continue
		}
		if a.write || b.write {
			rt.reportOnce(Violation{Kind: VGlobalConc, Rank: a.origin, Op: a.op,
				Msg: fmt.Sprintf("conflicting RMA access to rank %d window (with rank %d)", a.target, b.origin)})
		}
	}
	w.accesses = append(w.accesses, a)
}

// checkRMALocalAccess flags local loads/stores that touch an exposed window
// region during an open epoch while remote accesses target it.
func (rt *Runtime) checkRMALocalAccess(rank int, ptr *Ptr, size int, isWrite bool) {
	for _, w := range rt.wins {
		if w.freed || (!w.open && len(w.locks) == 0) {
			continue
		}
		base := w.bases[rank]
		if base == nil || base.Obj != ptr.Obj {
			continue
		}
		rel := ptr.Off - base.Off
		if rel+size <= 0 || rel >= w.sizes[rank] {
			continue
		}
		for _, b := range w.accesses {
			if b.target != rank || b.origin == rank {
				continue
			}
			if rel+size <= b.off || b.off+b.length <= rel {
				continue
			}
			if isWrite || b.write {
				rt.reportOnce(Violation{Kind: VLocalConc, Rank: rank, Op: b.op,
					Msg: "local access to window memory conflicts with a remote RMA access in the same epoch"})
			}
		}
		if isWrite && w.open {
			// Record the local write so later remote accesses see it.
			rt.recordRMA(w, rmaAccess{origin: rank, target: rank, off: rel, length: size, write: true, op: mpi.OpWinCreate})
		}
	}
}

func (rt *Runtime) doWinLock(p *proc, op mpi.Op, sig *mpi.Signature, args []RV) (RV, error) {
	w := rt.winByHandle(p, op, args[sig.Arg.Win].I)
	if w == nil {
		return RV{I: mpi.ErrOther}, nil
	}
	target := int(args[sig.Arg.Peer].I)
	if op == mpi.OpWinLock {
		if !rt.peerOK(p, op, target) {
			return RV{I: mpi.ErrOther}, nil
		}
		return rt.park(p, wait{op: op, win: w, idx: target})
	}
	if w.locks[target] != p.rank+1 {
		rt.report(Violation{Kind: VEpochLife, Rank: p.rank, Op: op,
			Msg: "unlock without a matching lock"})
		return RV{I: mpi.ErrOther}, nil
	}
	w.locks[target] = 0
	// Passive epoch closes: clear this origin's accesses to the target.
	live := w.accesses[:0]
	for _, a := range w.accesses {
		if !(a.origin == p.rank && a.target == target) {
			live = append(live, a)
		}
	}
	w.accesses = live
	return RV{I: mpi.Success}, nil
}
