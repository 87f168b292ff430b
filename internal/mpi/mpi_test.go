package mpi

import "testing"

// allOps walks the enum rather than the name table, so an Op constant added
// without an opNames or signatures entry fails the tests below. OpAbort is
// the last constant in the enum.
func allOps() []Op {
	var ops []Op
	for op := OpInit; op <= OpAbort; op++ {
		ops = append(ops, op)
	}
	return ops
}

func TestOpNamesRoundTrip(t *testing.T) {
	for _, op := range allOps() {
		name := op.String()
		got, ok := FromName(name)
		if !ok || got != op {
			t.Errorf("FromName(%q) = %v, %v", name, got, ok)
		}
	}
	if len(opNames) != len(allOps()) {
		t.Errorf("opNames has %d entries for %d ops; an Op after OpAbort needs allOps extended", len(opNames), len(allOps()))
	}
	if _, ok := FromName("MPI_NotAThing"); ok {
		t.Error("FromName accepted an unknown name")
	}
}

func TestClassify(t *testing.T) {
	cases := map[Op]Class{
		OpInit:      ClassEnv,
		OpSend:      ClassP2P,
		OpIsend:     ClassNonBlock,
		OpSendInit:  ClassPersistent,
		OpWait:      ClassRequest,
		OpBcast:     ClassCollective,
		OpPut:       ClassRMA,
		OpCommSplit: ClassComm,
		OpTypeFree:  ClassType,
	}
	for op, want := range cases {
		if got := Classify(op); got != want {
			t.Errorf("Classify(%s) = %v, want %v", op, got, want)
		}
	}
}

func TestBlockingAndRequests(t *testing.T) {
	if !IsBlocking(OpRecv) || !IsBlocking(OpBarrier) || IsBlocking(OpIsend) {
		t.Error("IsBlocking wrong")
	}
	if !StartsRequest(OpIrecv) || !StartsRequest(OpSendInit) || StartsRequest(OpSend) {
		t.Error("StartsRequest wrong")
	}
	if !IsCollective(OpAllreduce) || IsCollective(OpSend) {
		t.Error("IsCollective wrong")
	}
}

func TestDatatypes(t *testing.T) {
	if DTInt.Size() != 4 || DTDouble.Size() != 8 || DTChar.Size() != 1 {
		t.Error("datatype sizes wrong")
	}
	if !DTInt.Compatible(DTInt) || DTInt.Compatible(DTDouble) {
		t.Error("compatibility wrong")
	}
	if !DTByte.Compatible(DTDouble) {
		t.Error("MPI_BYTE should match anything")
	}
	if DTInt.String() != "MPI_INT" {
		t.Errorf("DTInt prints %q", DTInt)
	}
}

func TestSignatures(t *testing.T) {
	for _, op := range allOps() {
		sig, ok := SignatureOf(op)
		if !ok {
			t.Errorf("no signature for %s", op)
			continue
		}
		for _, idx := range []int{sig.Arg.Buf, sig.Arg.Count, sig.Arg.Datatype,
			sig.Arg.Peer, sig.Arg.Tag, sig.Arg.Comm, sig.Arg.Request,
			sig.Arg.Root, sig.Arg.RedOp, sig.Arg.Win} {
			if idx >= sig.NArgs {
				t.Errorf("%s: argument role index %d beyond arity %d", op, idx, sig.NArgs)
			}
		}
	}
	send, _ := SignatureOf(OpSend)
	if send.Arg.Tag != 4 || send.Arg.Comm != 5 || send.NArgs != 6 {
		t.Errorf("MPI_Send signature wrong: %+v", send)
	}
	reduce, _ := SignatureOf(OpReduce)
	if reduce.Arg.RedOp != 4 || reduce.Arg.Root != 5 {
		t.Errorf("MPI_Reduce signature wrong: %+v", reduce)
	}
}
