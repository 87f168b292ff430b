// Package servetest holds test fixtures shared by the serve engine
// tests, the serve/rest transport tests and the examples-adjacent
// benchmarks: a small trained detector, corpus programs lowered to the
// textual-IR wire format, hand-built MPI programs with known verdicts,
// and a gate-controlled stall tool for streaming/cancellation tests.
//
// It deliberately does not import internal/serve (or serve/rest), so
// both packages' tests can use it without an import cycle; programs are
// returned as plain name/IR pairs.
package servetest

import (
	"context"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"mpidetect/internal/ast"
	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/verify"
)

// Prog is one program in the wire format, mirroring serve.Program
// without importing it.
type Prog struct {
	Name string
	IR   string
}

var (
	trainedOnce sync.Once
	trainedDet  core.Detector
	trainedErr  error
)

// Trained returns one shared small detector for the whole test binary.
func Trained(t testing.TB) core.Detector {
	t.Helper()
	trainedOnce.Do(func() {
		cfg := core.DefaultIR2VecConfig()
		cfg.Dim = 32
		trainedDet, trainedErr = core.TrainIR2Vec(dataset.GenerateCorrBench(1, false), cfg)
	})
	if trainedErr != nil {
		t.Fatal(trainedErr)
	}
	return trainedDet
}

// Corpus lowers n held-out programs to textual IR.
func Corpus(t testing.TB, n int) []Prog {
	t.Helper()
	d := dataset.GenerateCorrBench(7, false)
	if len(d.Codes) < n {
		n = len(d.Codes)
	}
	progs := make([]Prog, n)
	for i, c := range d.Codes[:n] {
		m := irgen.MustLower(c.Prog)
		progs[i] = Prog{Name: c.Name, IR: ir.Print(m)}
	}
	return progs
}

// ProgIR lowers an AST program to the textual-IR wire format.
func ProgIR(t testing.TB, p *ast.Program) string {
	t.Helper()
	m, err := irgen.Lower(p)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return ir.Print(m)
}

// PingpongIR is a correct two-rank exchange: every tool should answer
// "clean". name becomes the module name (it survives the IR round-trip,
// so StallTool can key on it) AND salts the message tag — the serving
// digests are comment-insensitive, so without a structural difference
// every pingpong variant would share one cache entry and coalesce.
func PingpongIR(t testing.TB, name string) string {
	tag := ast.I(nameTag(name))
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.DeclArr("buf", 8, ast.Int),
		ast.IfElse(ast.Eq(ast.Id("rank"), ast.I(0)),
			[]ast.Stmt{
				ast.CallS("MPI_Send", ast.Id("buf"), ast.I(8), ast.Id("MPI_INT"),
					ast.I(1), tag, ast.Id("MPI_COMM_WORLD")),
			},
			[]ast.Stmt{
				ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(8), ast.Id("MPI_INT"),
					ast.I(0), tag, ast.Id("MPI_COMM_WORLD"), ast.Id("MPI_STATUS_IGNORE")),
			}),
		ast.Finalize(),
	)
	return ProgIR(t, ast.MainProgram(name, stmts...))
}

// nameTag maps a program name to a positive MPI tag, collision-free for
// any realistic test batch.
func nameTag(name string) int64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int64(h.Sum32() & 0x3fffffff)
}

// StallTool is a registerable static tool that blocks on Gate for
// modules whose name has the given prefix and answers "clean" instantly
// for everything else. Streaming tests inject it to hold exactly one
// program of a batch open: verdicts for the other programs must still
// flow (first-verdict-before-last), and cancelling the request must
// release the waiters.
//
// Close Gate (or cancel the request context) to release stalled calls.
type StallTool struct {
	Prefix string        // module-name prefix that stalls
	Gate   chan struct{} // closed = stalled calls proceed

	stalled chan struct{} // closed once the first stalling call arrives
	once    sync.Once
}

// NewStallTool builds a StallTool with an open stall gate.
func NewStallTool(prefix string) *StallTool {
	return &StallTool{Prefix: prefix, Gate: make(chan struct{}),
		stalled: make(chan struct{})}
}

// Stalled is closed once some call is actually blocked on the gate.
func (s *StallTool) Stalled() <-chan struct{} { return s.stalled }

func (s *StallTool) Name() string { return "stall" }

// Check satisfies verify.Tool for dataset-level use; never stalls.
func (s *StallTool) Check(*dataset.Code) verify.Verdict { return verify.Verdict{} }

// CheckModule blocks matching modules until Gate closes or ctx dies.
func (s *StallTool) CheckModule(ctx context.Context, m *ir.Module, _ mpisim.Config) verify.Verdict {
	if m != nil && strings.HasPrefix(m.Name, s.Prefix) {
		s.once.Do(func() { close(s.stalled) })
		select {
		case <-s.Gate:
		case <-ctx.Done():
			return verify.Verdict{Canceled: true, Reason: "stall: canceled"}
		}
	}
	return verify.Verdict{}
}
