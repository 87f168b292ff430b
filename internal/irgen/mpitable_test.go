package irgen

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// updateMPITableGolden regenerates testdata/mpi_table.golden. The file
// pins, for every modelled routine, what the model says about it (name,
// flags, arity, argument roles) and the IR prototype lowering declares;
// regenerate only for a deliberate, reviewed change to the MPI model.
var updateMPITableGolden = flag.Bool("update-mpi-table-golden", false,
	"regenerate testdata/mpi_table.golden from the current MPI model")

const mpiTableGolden = "testdata/mpi_table.golden"

// mpiTableLine renders one routine's row of the golden.
func mpiTableLine(t *testing.T, op mpi.Op) string {
	t.Helper()
	sig := mpi.SignatureOf(op)
	if sig == nil {
		t.Fatalf("no signature for %s", op)
	}
	g := &gen{m: ir.NewModule("table"), funcs: map[string]*ir.Func{}}
	f, err := g.declareExtern(op.String())
	if err != nil {
		t.Fatalf("declareExtern(%s): %v", op, err)
	}
	params := make([]string, len(f.Sig.Params))
	for i, p := range f.Sig.Params {
		params[i] = p.String()
	}
	a := sig.Arg
	return fmt.Sprintf("%s collective=%t request=%t nargs=%d buf=%d count=%d datatype=%d peer=%d tag=%d comm=%d req=%d root=%d redop=%d win=%d "+
		"recvbuf=%d recvcount=%d recvdatatype=%d source=%d recvtag=%d status=%d out=%d size=%d disp=%d targetdatatype=%d ret=%s params=(%s)",
		op, mpi.IsCollective(op), mpi.StartsRequest(op), len(sig.Params),
		a.Buf, a.Count, a.Datatype, a.Peer, a.Tag, a.Comm, a.Request, a.Root, a.RedOp, a.Win,
		a.RecvBuf, a.RecvCount, a.RecvDatatype, a.Source, a.RecvTag, a.Status, a.Out, a.Size, a.Disp, a.TargetDatatype,
		f.Sig.Ret, strings.Join(params, ", "))
}

// TestMPITableGolden pins the MPI model and the prototypes lowering
// declares for it against a committed table, one line per routine from
// MPI_Init to MPI_Abort.
func TestMPITableGolden(t *testing.T) {
	var b strings.Builder
	for op := mpi.OpInit; op <= mpi.OpAbort; op++ {
		b.WriteString(mpiTableLine(t, op))
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateMPITableGolden {
		if err := os.WriteFile(mpiTableGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(mpiTableGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-mpi-table-golden to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("golden has %d lines, model renders %d", len(wl), len(gl))
		}
	}
}

// TestMPISignatureMatchesPrototype checks that every routine's arity in the
// model equals the parameter count of the prototype lowering declares.
func TestMPISignatureMatchesPrototype(t *testing.T) {
	for op := mpi.OpInit; op <= mpi.OpAbort; op++ {
		sig := mpi.SignatureOf(op)
		g := &gen{m: ir.NewModule("arity"), funcs: map[string]*ir.Func{}}
		f, err := g.declareExtern(op.String())
		if err != nil {
			t.Fatalf("declareExtern(%s): %v", op, err)
		}
		if len(f.Sig.Params) != len(sig.Params) {
			t.Errorf("%s: model arity %d, IR prototype has %d params", op, len(sig.Params), len(f.Sig.Params))
		}
	}
}
