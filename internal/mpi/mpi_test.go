package mpi

import (
	"reflect"
	"testing"
)

// allOps walks the enum rather than the routines table, so an Op constant
// added without a row fails the tests below. OpAbort is the last constant
// in the enum.
func allOps() []Op {
	var ops []Op
	for op := OpInit; op <= OpAbort; op++ {
		ops = append(ops, op)
	}
	return ops
}

// TestRoutineTableInvariants checks what every row must satisfy: the name
// maps back to the op, and every role index lies inside the arity.
func TestRoutineTableInvariants(t *testing.T) {
	if len(routines) != len(allOps())+1 {
		t.Errorf("routines has %d rows for %d ops; an Op after OpAbort needs allOps extended", len(routines)-1, len(allOps()))
	}
	for _, op := range allOps() {
		name := op.String()
		if got, ok := FromName(name); !ok || got != op {
			t.Errorf("FromName(%q) = %v, %v", name, got, ok)
		}
		sig := SignatureOf(op)
		if sig == nil {
			t.Errorf("no signature for %s", op)
			continue
		}
		roles := reflect.ValueOf(sig.Arg)
		for i := 0; i < roles.NumField(); i++ {
			if idx := int(roles.Field(i).Int()); idx < -1 || idx >= len(sig.Params) {
				t.Errorf("%s: %s index %d outside arity %d", op, roles.Type().Field(i).Name, idx, len(sig.Params))
			}
		}
	}
	for _, op := range []Op{OpNone, OpAbort + 1, -1} {
		if SignatureOf(op) != nil {
			t.Errorf("SignatureOf(%d) found a signature", op)
		}
		if IsCollective(op) || StartsRequest(op) {
			t.Errorf("op %d has flags", op)
		}
	}
	if _, ok := FromName("MPI_NotAThing"); ok {
		t.Error("FromName accepted an unknown name")
	}
}

func TestRequestsAndCollectives(t *testing.T) {
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

func TestHandleNamed(t *testing.T) {
	for d := DTNull; d < DTDerived; d++ {
		if got, ok := HandleNamed(d.String()); !ok || got != int64(d) {
			t.Errorf("HandleNamed(%q) = %v, %v", d, got, ok)
		}
	}
	if _, ok := HandleNamed(DTDerived.String()); ok {
		t.Error("HandleNamed accepted MPI_DERIVED, which mpi.h does not define")
	}
	for r := RONull; r <= ROBor; r++ {
		if got, ok := HandleNamed(r.String()); !ok || got != int64(r) {
			t.Errorf("HandleNamed(%q) = %v, %v", r, got, ok)
		}
	}
	if _, ok := HandleNamed("MPI_COMM_WORLD"); ok {
		t.Error("HandleNamed accepted a communicator")
	}
}

func TestSignatures(t *testing.T) {
	send := SignatureOf(OpSend)
	if send.Arg.Tag != 4 || send.Arg.Comm != 5 || len(send.Params) != 6 {
		t.Errorf("MPI_Send signature wrong: %+v", send)
	}
	reduce := SignatureOf(OpReduce)
	if reduce.Arg.RedOp != 4 || reduce.Arg.Root != 5 {
		t.Errorf("MPI_Reduce signature wrong: %+v", reduce)
	}
}
