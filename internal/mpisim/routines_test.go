package mpisim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	ast "mpidetect/internal/ast"
	"mpidetect/internal/irgen"
)

// updateRoutinesGolden regenerates testdata/routines.golden. The file
// characterises what the simulator does with every modelled routine, and
// with each datatype on the data-moving ones; regenerate only for a
// deliberate, reviewed change of simulated behaviour.
var updateRoutinesGolden = flag.Bool("update-routines-golden", false,
	"regenerate testdata/routines.golden from the current simulator")

const routinesGolden = "testdata/routines.golden"

// routineCase is one characterisation program and its world size.
type routineCase struct {
	name  string
	ranks int
	stmts []ast.Stmt // between the MPI boilerplate and MPI_Finalize
}

// goldenDatatypes are the datatypes the data-moving routines are run
// with: the seven basic types and a committed MPI_Type_contiguous(2,
// MPI_INT) handle, "derived".
var goldenDatatypes = []string{"MPI_INT", "MPI_FLOAT", "MPI_DOUBLE", "MPI_CHAR",
	"MPI_LONG", "MPI_BYTE", "MPI_UNSIGNED", "derived"}

// Expression shorthands for the characterisation programs.
var (
	rank   = ast.Id("rank")
	peerOf = ast.Sub(ast.I(1), ast.Id("rank")) // the other rank of two
	null   = ast.Id("NULL")
)

func id(name string) ast.Expr   { return ast.Id(name) }
func addr(name string) ast.Expr { return ast.Addr(ast.Id(name)) }
func elemOf(a string, i int64) ast.Expr {
	return ast.Addr(ast.Idx(ast.Id(a), ast.I(i)))
}
func onRank(r int64, then ...ast.Stmt) ast.Stmt { return ast.If(ast.Eq(rank, ast.I(r)), then...) }

// dtProgram is the frame of a per-datatype program: arrays a and b of
// four elements (double for the floating types, int otherwise), a filled
// with rank*10+i+1 and b zero, the datatype expression, and the
// statements that create and free the derived handle.
type dtProgram struct {
	dt          ast.Expr
	float       bool
	bytes       int64 // the size of a and of b
	setup, done []ast.Stmt
}

func newDTProgram(dt string) dtProgram {
	p := dtProgram{dt: ast.Id(dt), float: dt == "MPI_FLOAT" || dt == "MPI_DOUBLE", bytes: 16}
	elem := ast.Int
	if p.float {
		elem, p.bytes = ast.Double, 32
	}
	p.setup = []ast.Stmt{
		ast.DeclArr("a", 4, elem),
		ast.DeclArr("b", 4, elem),
		ast.ForUp("i", 0, 4, ast.Assign(ast.Idx(ast.Id("a"), ast.Id("i")),
			ast.Add(ast.Mul(rank, ast.I(10)), ast.Add(ast.Id("i"), ast.I(1))))),
	}
	if dt == "derived" {
		p.dt = ast.Id("ty")
		p.setup = append(p.setup,
			ast.Decl("ty", ast.Datatype, nil),
			ast.CallS("MPI_Type_contiguous", ast.I(2), id("MPI_INT"), addr("ty")),
			ast.CallS("MPI_Type_commit", addr("ty")))
		p.done = []ast.Stmt{ast.CallS("MPI_Type_free", addr("ty"))}
	}
	return p
}

// print prints rank's four elements of array arr.
func (p dtProgram) print(arr string) []ast.Stmt {
	verb := " %d"
	if p.float {
		verb = " %g"
	}
	out := []ast.Stmt{ast.CallS("printf", ast.S("r%d "+arr+":"), rank)}
	for i := int64(0); i < 4; i++ {
		out = append(out, ast.CallS("printf", ast.S(verb), ast.Idx(ast.Id(arr), ast.I(i))))
	}
	return append(out, ast.CallS("printf", ast.S("\n")))
}

func (p dtProgram) wrap(body ...ast.Stmt) []ast.Stmt {
	out := append(append([]ast.Stmt{}, p.setup...), body...)
	return append(out, p.done...)
}

// window opens an RMA window over a on every rank and returns the
// statements that do so.
func (p dtProgram) window() []ast.Stmt {
	return []ast.Stmt{
		ast.Decl("win", ast.Win, nil),
		ast.CallS("MPI_Win_create", id("a"), ast.I(p.bytes), ast.I(4), id("MPI_INFO_NULL"), world(), addr("win")),
		ast.CallS("MPI_Win_fence", ast.I(0), id("win")),
	}
}

func (p dtProgram) closeWindow() []ast.Stmt {
	return []ast.Stmt{ast.CallS("MPI_Win_fence", ast.I(0), id("win"))}
}

// datatypeCases runs Send/Recv, Bcast, Reduce, Allreduce, Scan, Exscan,
// Put, Get and Accumulate once per golden datatype.
func datatypeCases() []routineCase {
	var cases []routineCase
	for _, dt := range goldenDatatypes {
		p := newDTProgram(dt)
		body := func(stmts ...[]ast.Stmt) []ast.Stmt {
			var out []ast.Stmt
			for _, s := range stmts {
				out = append(out, s...)
			}
			return p.wrap(out...)
		}
		rma := func(access ...ast.Stmt) []ast.Stmt {
			return body(p.window(), access, p.closeWindow(), p.print("a"), p.print("b"),
				[]ast.Stmt{ast.CallS("MPI_Win_free", addr("win"))})
		}
		cases = append(cases,
			routineCase{"Send+Recv/" + dt, 2, body([]ast.Stmt{
				onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(2), p.dt, ast.I(1), ast.I(5), world())),
				onRank(1, ast.CallS("MPI_Recv", id("b"), ast.I(2), p.dt, ast.I(0), ast.I(5), world(), id("MPI_STATUS_IGNORE"))),
			}, p.print("b"))},
			routineCase{"Bcast/" + dt, 3, body([]ast.Stmt{
				ast.CallS("MPI_Bcast", id("a"), ast.I(2), p.dt, ast.I(1), world()),
			}, p.print("a"))},
			routineCase{"Reduce/" + dt, 3, body([]ast.Stmt{
				ast.CallS("MPI_Reduce", id("a"), id("b"), ast.I(2), p.dt, id("MPI_SUM"), ast.I(0), world()),
			}, p.print("b"))},
			routineCase{"Allreduce/" + dt, 3, body([]ast.Stmt{
				ast.CallS("MPI_Allreduce", id("a"), id("b"), ast.I(2), p.dt, id("MPI_MAX"), world()),
			}, p.print("b"))},
			routineCase{"Scan/" + dt, 3, body([]ast.Stmt{
				ast.CallS("MPI_Scan", id("a"), id("b"), ast.I(2), p.dt, id("MPI_SUM"), world()),
			}, p.print("b"))},
			routineCase{"Exscan/" + dt, 3, body([]ast.Stmt{
				ast.CallS("MPI_Exscan", id("a"), id("b"), ast.I(2), p.dt, id("MPI_SUM"), world()),
			}, p.print("b"))},
			routineCase{"Put/" + dt, 2, rma(
				onRank(0, ast.CallS("MPI_Put", id("a"), ast.I(1), p.dt, ast.I(1), ast.I(1), ast.I(1), p.dt, id("win"))))},
			routineCase{"Get/" + dt, 2, rma(
				onRank(0, ast.CallS("MPI_Get", id("b"), ast.I(2), p.dt, ast.I(1), ast.I(0), ast.I(2), p.dt, id("win"))))},
			routineCase{"Accumulate/" + dt, 3, rma(
				ast.If(ast.Ne(rank, ast.I(0)),
					ast.CallS("MPI_Accumulate", id("a"), ast.I(2), p.dt, ast.I(0), ast.I(0), ast.I(2), p.dt, id("MPI_SUM"), id("win"))))},
		)
	}
	return cases
}

// routineCases is one program for each modelled routine that the
// per-datatype programs do not already exercise, plus programs for the
// invalid-argument paths of the decode: null pointers, unknown and
// uncommitted derived handles, MPI_PROC_NULL peers and counts past the
// buffer.
func routineCases() []routineCase {
	ip := newDTProgram("MPI_INT")
	req := func(i int64) ast.Expr { return elemOf("reqs", i) }
	p2p := func(send string) []ast.Stmt {
		return ip.wrap(
			onRank(0, ast.CallS(send, id("a"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(3), world())),
			onRank(1, ast.CallS("MPI_Recv", id("b"), ast.I(4), id("MPI_INT"), ast.I(0), ast.I(3), world(), id("MPI_STATUS_IGNORE")),
				ast.CallS("printf", ast.S("b0=%d b1=%d\n"), ast.Idx(id("b"), ast.I(0)), ast.Idx(id("b"), ast.I(1)))))
	}
	immediate := func(send string) []ast.Stmt {
		return ip.wrap(append([]ast.Stmt{
			ast.Decl("req", ast.Request, nil),
			ast.IfElse(ast.Eq(rank, ast.I(0)),
				[]ast.Stmt{ast.CallS(send, id("a"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(4), world(), addr("req"))},
				[]ast.Stmt{ast.CallS("MPI_Irecv", id("b"), ast.I(2), id("MPI_INT"), ast.I(0), ast.I(4), world(), addr("req"))}),
			ast.CallS("MPI_Wait", addr("req"), id("MPI_STATUS_IGNORE")),
		}, ip.print("b")...)...)
	}
	persistent := func(start ...ast.Stmt) []ast.Stmt {
		return ip.wrap(append([]ast.Stmt{
			ast.Decl("reqs", ast.ArrayOf(2, ast.Request), nil),
			ast.IfElse(ast.Eq(rank, ast.I(0)),
				[]ast.Stmt{
					ast.CallS("MPI_Send_init", elemOf("a", 0), ast.I(1), id("MPI_INT"), ast.I(1), ast.I(7), world(), req(0)),
					ast.CallS("MPI_Send_init", elemOf("a", 1), ast.I(1), id("MPI_INT"), ast.I(1), ast.I(8), world(), req(1)),
				},
				[]ast.Stmt{
					ast.CallS("MPI_Recv_init", elemOf("b", 0), ast.I(1), id("MPI_INT"), ast.I(0), ast.I(7), world(), req(0)),
					ast.CallS("MPI_Recv_init", elemOf("b", 1), ast.I(1), id("MPI_INT"), ast.I(0), ast.I(8), world(), req(1)),
				}),
		}, append(append(start,
			ast.CallS("MPI_Waitall", ast.I(2), id("reqs"), id("MPI_STATUSES_IGNORE")),
			ast.CallS("MPI_Request_free", req(0)),
			ast.CallS("MPI_Request_free", req(1))),
			ip.print("b")...)...)...)
	}
	window := ip.window()
	return []routineCase{
		{"Init+Comm_rank+Comm_size+Finalize", 3, []ast.Stmt{
			ast.CallS("printf", ast.S("rank %d of %d\n"), rank, id("size"))}},
		{"Ssend", 2, p2p("MPI_Ssend")},
		{"Bsend", 2, p2p("MPI_Bsend")},
		{"Rsend", 2, p2p("MPI_Rsend")},
		{"Sendrecv", 2, ip.wrap(append([]ast.Stmt{
			ast.Decl("st", &ast.Type{Kind: ast.TMPIStatus}, nil),
			ast.CallS("MPI_Sendrecv", id("a"), ast.I(2), id("MPI_INT"), peerOf, ast.I(9),
				elemOf("b", 1), ast.I(2), id("MPI_INT"), peerOf, ast.I(9), world(), addr("st")),
		}, ip.print("b")...)...)},
		{"Sendrecv/PROC_NULL-source", 2, ip.wrap(append([]ast.Stmt{
			ast.CallS("MPI_Sendrecv", id("a"), ast.I(2), id("MPI_INT"), id("MPI_PROC_NULL"), ast.I(9),
				id("b"), ast.I(2), id("MPI_INT"), id("MPI_PROC_NULL"), ast.I(9), world(), id("MPI_STATUS_IGNORE")),
		}, ip.print("b")...)...)},
		{"Isend+Irecv+Wait", 2, immediate("MPI_Isend")},
		{"Issend", 2, immediate("MPI_Issend")},
		{"Waitall", 2, ip.wrap(append([]ast.Stmt{
			ast.Decl("reqs", ast.ArrayOf(2, ast.Request), nil),
			ast.CallS("MPI_Irecv", id("b"), ast.I(2), id("MPI_INT"), peerOf, ast.I(1), world(), req(0)),
			ast.CallS("MPI_Isend", id("a"), ast.I(2), id("MPI_INT"), peerOf, ast.I(1), world(), req(1)),
			ast.CallS("MPI_Waitall", ast.I(2), id("reqs"), id("MPI_STATUSES_IGNORE")),
		}, ip.print("b")...)...)},
		{"Test", 2, ip.wrap(
			ast.Decl("req", ast.Request, nil),
			ast.Decl("flag", ast.Int, ast.I(0)),
			ast.IfElse(ast.Eq(rank, ast.I(0)),
				[]ast.Stmt{
					ast.CallS("MPI_Irecv", id("b"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(2), world(), addr("req")),
					ast.While(ast.Eq(id("flag"), ast.I(0)),
						ast.CallS("MPI_Test", addr("req"), addr("flag"), id("MPI_STATUS_IGNORE"))),
					ast.CallS("printf", ast.S("flag=%d b0=%d\n"), id("flag"), ast.Idx(id("b"), ast.I(0))),
				},
				[]ast.Stmt{ast.CallS("MPI_Send", id("a"), ast.I(2), id("MPI_INT"), ast.I(0), ast.I(2), world())}))},
		{"Request_free", 2, ip.wrap(
			ast.Decl("req", ast.Request, nil),
			onRank(0,
				ast.CallS("MPI_Isend", id("a"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(4), world(), addr("req")),
				ast.CallS("MPI_Request_free", addr("req"))),
			onRank(1, ast.CallS("MPI_Recv", id("b"), ast.I(2), id("MPI_INT"), ast.I(0), ast.I(4), world(), id("MPI_STATUS_IGNORE"))))},
		{"Send_init+Recv_init+Start", 2, persistent(
			ast.CallS("MPI_Start", req(0)), ast.CallS("MPI_Start", req(1)))},
		{"Startall", 2, persistent(ast.CallS("MPI_Startall", ast.I(2), id("reqs")))},
		{"Barrier", 2, []ast.Stmt{ast.CallS("MPI_Barrier", world())}},
		{"Gather", 3, ip.wrap(ast.DeclArr("all", 8, ast.Int),
			ast.CallS("MPI_Gather", id("a"), ast.I(2), id("MPI_INT"), id("all"), ast.I(2), id("MPI_INT"), ast.I(1), world()),
			ast.CallS("printf", ast.S("r%d all: %d %d %d %d %d %d\n"), rank,
				ast.Idx(id("all"), ast.I(0)), ast.Idx(id("all"), ast.I(1)), ast.Idx(id("all"), ast.I(2)),
				ast.Idx(id("all"), ast.I(3)), ast.Idx(id("all"), ast.I(4)), ast.Idx(id("all"), ast.I(5))))},
		{"Scatter", 3, ip.wrap(append([]ast.Stmt{ast.DeclArr("all", 8, ast.Int),
			ast.ForUp("j", 0, 8, ast.Assign(ast.Idx(id("all"), id("j")), ast.Add(id("j"), ast.I(100)))),
			ast.CallS("MPI_Scatter", id("all"), ast.I(2), id("MPI_INT"), id("b"), ast.I(2), id("MPI_INT"), ast.I(0), world()),
		}, ip.print("b")...)...)},
		{"Allgather", 3, ip.wrap(ast.DeclArr("all", 8, ast.Int),
			ast.CallS("MPI_Allgather", id("a"), ast.I(2), id("MPI_INT"), id("all"), ast.I(2), id("MPI_INT"), world()),
			ast.CallS("printf", ast.S("r%d all: %d %d %d %d %d %d\n"), rank,
				ast.Idx(id("all"), ast.I(0)), ast.Idx(id("all"), ast.I(1)), ast.Idx(id("all"), ast.I(2)),
				ast.Idx(id("all"), ast.I(3)), ast.Idx(id("all"), ast.I(4)), ast.Idx(id("all"), ast.I(5))))},
		{"Alltoall", 2, ip.wrap(append([]ast.Stmt{
			ast.CallS("MPI_Alltoall", id("a"), ast.I(2), id("MPI_INT"), id("b"), ast.I(2), id("MPI_INT"), world()),
		}, ip.print("b")...)...)},
		{"Ibarrier", 2, []ast.Stmt{ast.Decl("req", ast.Request, nil),
			ast.CallS("MPI_Ibarrier", world(), addr("req")),
			ast.CallS("MPI_Wait", addr("req"), id("MPI_STATUS_IGNORE"))}},
		{"Ibcast", 3, ip.wrap(append([]ast.Stmt{ast.Decl("req", ast.Request, nil),
			ast.CallS("MPI_Ibcast", id("a"), ast.I(3), id("MPI_INT"), ast.I(2), world(), addr("req")),
			ast.CallS("MPI_Wait", addr("req"), id("MPI_STATUS_IGNORE")),
		}, ip.print("a")...)...)},
		{"Ibcast/null-request", 2, ip.wrap(
			ast.CallS("MPI_Ibcast", id("a"), ast.I(3), id("MPI_INT"), ast.I(0), world(), null))},
		{"Iallreduce", 3, ip.wrap(append([]ast.Stmt{ast.Decl("req", ast.Request, nil),
			ast.CallS("MPI_Iallreduce", id("a"), id("b"), ast.I(3), id("MPI_INT"), id("MPI_PROD"), world(), addr("req")),
			ast.CallS("MPI_Wait", addr("req"), id("MPI_STATUS_IGNORE")),
		}, ip.print("b")...)...)},
		{"Win_create+Win_fence+Win_free", 2, ip.wrap(append(window,
			ast.CallS("MPI_Win_fence", ast.I(0), id("win")),
			ast.CallS("MPI_Win_free", addr("win")))...)},
		{"Win_lock+Win_unlock", 2, ip.wrap(append(append([]ast.Stmt{}, window...),
			ast.CallS("MPI_Win_fence", ast.I(0), id("win")),
			onRank(0,
				ast.CallS("MPI_Win_lock", id("MPI_LOCK_EXCLUSIVE"), ast.I(1), ast.I(0), id("win")),
				ast.CallS("MPI_Put", id("a"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(2), ast.I(2), id("MPI_INT"), id("win")),
				ast.CallS("MPI_Win_unlock", ast.I(1), id("win"))),
			ast.CallS("MPI_Barrier", world()),
			ast.CallS("printf", ast.S("r%d a: %d %d %d %d\n"), rank, ast.Idx(id("a"), ast.I(0)),
				ast.Idx(id("a"), ast.I(1)), ast.Idx(id("a"), ast.I(2)), ast.Idx(id("a"), ast.I(3))),
			ast.CallS("MPI_Win_free", addr("win")))...)},
		{"Comm_split+Comm_free", 3, []ast.Stmt{
			ast.Decl("sub", ast.Comm, nil),
			ast.Decl("n", ast.Int, nil),
			ast.CallS("MPI_Comm_split", world(), ast.Mod(rank, ast.I(2)), rank, addr("sub")),
			ast.CallS("MPI_Comm_size", id("sub"), addr("n")),
			ast.CallS("MPI_Barrier", id("sub")),
			ast.CallS("printf", ast.S("r%d sub=%d n=%d\n"), rank, id("sub"), id("n")),
			ast.CallS("MPI_Comm_free", addr("sub")),
			ast.CallS("printf", ast.S("r%d freed=%d\n"), rank, id("sub"))}},
		{"Comm_dup", 2, []ast.Stmt{
			ast.Decl("dup", ast.Comm, nil),
			ast.CallS("MPI_Comm_dup", world(), addr("dup")),
			ast.CallS("MPI_Barrier", id("dup")),
			ast.CallS("printf", ast.S("r%d dup=%d\n"), rank, id("dup"))}},
		{"Comm_free/world", 2, []ast.Stmt{
			ast.Decl("c", ast.Comm, world()),
			ast.CallS("MPI_Comm_free", addr("c"))}},
		{"Type_contiguous+Type_commit+Type_free", 2, []ast.Stmt{
			ast.Decl("ty", ast.Datatype, nil),
			ast.CallS("MPI_Type_contiguous", ast.I(3), id("MPI_DOUBLE"), addr("ty")),
			ast.CallS("MPI_Type_commit", addr("ty")),
			ast.CallS("printf", ast.S("ty=%d\n"), id("ty")),
			ast.CallS("MPI_Type_free", addr("ty")),
			ast.CallS("printf", ast.S("freed=%d\n"), id("ty"))}},
		{"Get_count", 2, ip.wrap(
			ast.Decl("st", &ast.Type{Kind: ast.TMPIStatus}, nil),
			ast.Decl("n", ast.Int, ast.I(-1)),
			onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(3), world())),
			onRank(1,
				ast.CallS("MPI_Recv", id("b"), ast.I(4), id("MPI_INT"), ast.I(0), ast.I(3), world(), addr("st")),
				ast.CallS("MPI_Get_count", addr("st"), id("MPI_INT"), addr("n")),
				ast.CallS("printf", ast.S("n=%d\n"), id("n"))))},
		{"Abort", 2, []ast.Stmt{onRank(0, ast.CallS("MPI_Abort", world(), ast.I(3)))}},

		// Invalid arguments.
		{"Comm_rank/null-output", 2, []ast.Stmt{ast.CallS("MPI_Comm_rank", world(), null)}},
		{"Recv/PROC_NULL", 2, ip.wrap(
			ast.CallS("MPI_Recv", id("b"), ast.I(2), id("MPI_INT"), id("MPI_PROC_NULL"), ast.I(0), world(), id("MPI_STATUS_IGNORE")))},
		{"Recv/unknown-derived", 2, ip.wrap(
			onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(0), world())),
			onRank(1, ast.CallS("MPI_Recv", id("b"), ast.I(2), ast.I(150), ast.I(0), ast.I(0), world(), id("MPI_STATUS_IGNORE"))))},
		{"Send/derived-overrun", 2, append(ip.wrap(
			ast.Decl("ty", ast.Datatype, nil),
			ast.CallS("MPI_Type_contiguous", ast.I(8), id("MPI_INT"), addr("ty")),
			ast.CallS("MPI_Type_commit", addr("ty")),
			onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(2), id("ty"), ast.I(1), ast.I(0), world())),
			onRank(1, ast.CallS("MPI_Recv", id("b"), ast.I(2), id("ty"), ast.I(0), ast.I(0), world(), id("MPI_STATUS_IGNORE"))),
			ast.CallS("MPI_Type_free", addr("ty"))), ip.print("b")...)},
		{"Irecv/derived-pending", 2, ip.wrap(
			ast.Decl("ty", ast.Datatype, nil),
			ast.Decl("req", ast.Request, nil),
			ast.CallS("MPI_Type_contiguous", ast.I(2), id("MPI_INT"), addr("ty")),
			ast.CallS("MPI_Type_commit", addr("ty")),
			onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(1), id("ty"), ast.I(1), ast.I(0), world())),
			onRank(1,
				ast.CallS("MPI_Irecv", id("b"), ast.I(1), id("ty"), ast.I(0), ast.I(0), world(), addr("req")),
				ast.Assign(ast.Idx(id("b"), ast.I(0)), ast.I(7)),
				ast.CallS("MPI_Wait", addr("req"), id("MPI_STATUS_IGNORE"))),
			ast.CallS("MPI_Type_free", addr("ty")))},
		{"Send/uncommitted-derived", 2, ip.wrap(
			ast.Decl("ty", ast.Datatype, nil),
			ast.CallS("MPI_Type_contiguous", ast.I(2), id("MPI_INT"), addr("ty")),
			onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(1), id("ty"), ast.I(1), ast.I(0), world())),
			onRank(1, ast.CallS("MPI_Recv", id("b"), ast.I(1), id("ty"), ast.I(0), ast.I(0), world(), id("MPI_STATUS_IGNORE"))))},
		{"Reduce/unknown-derived", 2, append(ip.wrap(
			ast.CallS("MPI_Reduce", id("a"), id("b"), ast.I(2), ast.I(150), id("MPI_SUM"), ast.I(0), world())), ip.print("b")...)},
		{"Allreduce/count-overrun", 2, append(ip.wrap(
			ast.CallS("MPI_Allreduce", id("a"), id("b"), ast.I(1<<20), id("MPI_INT"), id("MPI_SUM"), world())), ip.print("b")...)},
		{"Allreduce/op-and-count-mismatch", 2, append(ip.wrap(
			ast.IfElse(ast.Eq(rank, ast.I(0)),
				[]ast.Stmt{ast.CallS("MPI_Allreduce", id("a"), id("b"), ast.I(2), id("MPI_INT"), id("MPI_SUM"), world())},
				[]ast.Stmt{ast.CallS("MPI_Allreduce", id("a"), id("b"), ast.I(3), id("MPI_DOUBLE"), id("MPI_MIN"), world())})),
			ip.print("b")...)},
		{"Bcast/root-mismatch", 2, append(ip.wrap(
			ast.CallS("MPI_Bcast", id("a"), ast.I(2), id("MPI_INT"), rank, world())), ip.print("a")...)},
		{"Scan/negative-count", 2, ip.wrap(
			ast.CallS("MPI_Scan", id("a"), id("b"), ast.I(-1), id("MPI_INT"), id("MPI_SUM"), world()))},
		{"Send/invalid-peer-tag-comm", 2, ip.wrap(
			onRank(0, ast.CallS("MPI_Send", id("a"), ast.I(2), id("MPI_INT"), ast.I(5), ast.I(-7), ast.I(44))))},
		{"Put/unknown-derived-target", 2, ip.wrap(append(append([]ast.Stmt{}, window...),
			onRank(0, ast.CallS("MPI_Put", id("a"), ast.I(1), id("MPI_INT"), ast.I(1), ast.I(1), ast.I(1), ast.I(150), id("win"))),
			ast.CallS("MPI_Win_fence", ast.I(0), id("win")),
			ast.CallS("MPI_Win_free", addr("win")))...)},
		{"Get/displacement-overrun", 2, ip.wrap(append(append([]ast.Stmt{}, window...),
			onRank(0, ast.CallS("MPI_Get", id("b"), ast.I(2), id("MPI_INT"), ast.I(1), ast.I(3), ast.I(2), id("MPI_INT"), id("win"))),
			ast.CallS("MPI_Win_fence", ast.I(0), id("win")),
			ast.CallS("MPI_Win_free", addr("win")))...)},
	}
}

// renderResult writes one run's full Result.
func renderResult(b *strings.Builder, name string, ranks int, res *Result) {
	fmt.Fprintf(b, "== %s ranks=%d\n", name, ranks)
	fmt.Fprintf(b, "deadlock=%t timeout=%t wall=%t canceled=%t crashed=%t truncated=%t steps=%d\n",
		res.Deadlock, res.Timeout, res.WallTimeout, res.Canceled, res.Crashed, res.OutputTruncated, res.Steps)
	if res.CrashMsg != "" {
		fmt.Fprintf(b, "crash %q\n", res.CrashMsg)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(b, "violation %s\n", v)
	}
	for _, line := range strings.SplitAfter(res.Output, "\n") {
		if line != "" {
			fmt.Fprintf(b, "out %q\n", line)
		}
	}
}

// TestRoutinesGolden runs a small program for every modelled routine,
// and one per datatype for the data-moving routines, and compares each
// run's flags, crash message, violations, output and step count with
// the committed characterisation.
func TestRoutinesGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range append(datatypeCases(), routineCases()...) {
		stmts := append(ast.MPIBoilerplate(), c.stmts...)
		mod, err := irgen.Lower(ast.MainProgram(strings.ReplaceAll(c.name, "/", "_"), append(stmts, ast.Finalize())...))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		renderResult(&b, c.name, c.ranks, Run(mod, Config{Ranks: c.ranks, MaxSteps: goldenMaxSteps}))
	}
	got := b.String()
	if *updateRoutinesGolden {
		if err := os.WriteFile(routinesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(routinesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-routines-golden to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("first difference at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, the simulator renders %d", len(wl), len(gl))
	}
}
