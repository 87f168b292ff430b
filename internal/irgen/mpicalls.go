package irgen

import (
	"fmt"

	"mpidetect/internal/ast"
	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// statusPtr is the IR type of MPI_Status*.
var statusPtr = ir.PtrTo(ir.StatusType)

// paramTypes gives the IR type of each MPI parameter kind: C's int is
// i32; long and the request and window handles are i64.
var paramTypes = [...]*ir.Type{
	mpi.KVoidPtr:   ir.PtrTo(ir.I8),
	mpi.KInt:       ir.I32,
	mpi.KIntPtr:    ir.PtrTo(ir.I32),
	mpi.KLong:      ir.I64,
	mpi.KReqPtr:    ir.PtrTo(ir.I64),
	mpi.KStatusPtr: statusPtr,
}

// mpiConstant maps MPI identifier spellings to IR constants.
func mpiConstant(name string) (ir.Value, bool) {
	switch name {
	case "MPI_COMM_WORLD":
		return ir.ConstInt(ir.I32, mpi.CommWorld), true
	case "MPI_COMM_SELF":
		return ir.ConstInt(ir.I32, mpi.CommSelf), true
	case "MPI_COMM_NULL":
		return ir.ConstInt(ir.I32, mpi.CommNull), true
	case "MPI_ANY_SOURCE":
		return ir.ConstInt(ir.I32, mpi.AnySource), true
	case "MPI_ANY_TAG":
		return ir.ConstInt(ir.I32, mpi.AnyTag), true
	case "MPI_PROC_NULL":
		return ir.ConstInt(ir.I32, mpi.ProcNull), true
	case "MPI_SUCCESS":
		return ir.ConstInt(ir.I32, mpi.Success), true
	case "MPI_TAG_UB":
		return ir.ConstInt(ir.I32, mpi.TagUB), true
	case "MPI_STATUS_IGNORE", "MPI_STATUSES_IGNORE":
		return ir.ConstNull(statusPtr), true
	case "MPI_REQUEST_NULL":
		return ir.ConstInt(ir.I64, mpi.RequestNil), true
	case "MPI_INFO_NULL":
		return ir.ConstInt(ir.I32, 0), true
	case "MPI_IN_PLACE":
		return ir.ConstNull(ir.PtrTo(ir.I8)), true
	case "MPI_LOCK_SHARED":
		return ir.ConstInt(ir.I32, 1), true
	case "MPI_LOCK_EXCLUSIVE":
		return ir.ConstInt(ir.I32, 2), true
	case "NULL":
		return ir.ConstNull(ir.PtrTo(ir.I8)), true
	}
	if v, ok := mpi.HandleNamed(name); ok {
		return ir.ConstInt(ir.I32, v), true
	}
	return nil, false
}

// declareExtern ensures a declaration for callee exists in the module and
// returns it.
func (g *gen) declareExtern(name string) (*ir.Func, error) {
	if f := g.m.FuncByName(name); f != nil {
		return f, nil
	}
	if op, ok := mpi.FromName(name); ok {
		sig := mpi.SignatureOf(op)
		params := make([]*ir.Type, len(sig.Params))
		for i, p := range sig.Params {
			params[i] = paramTypes[p.Kind]
		}
		f := &ir.Func{Name: name, Decl: true, Sig: ir.FuncOf(ir.I32, params...)}
		g.m.AddFunc(f)
		return f, nil
	}
	switch name {
	case "printf":
		f := &ir.Func{Name: name, Decl: true, Variadic: true,
			Sig: ir.FuncOf(ir.I32, ir.PtrTo(ir.I8))}
		g.m.AddFunc(f)
		return f, nil
	case "exit":
		f := &ir.Func{Name: name, Decl: true, Sig: ir.FuncOf(ir.Void, ir.I32)}
		g.m.AddFunc(f)
		return f, nil
	case "sleep", "usleep":
		f := &ir.Func{Name: name, Decl: true, Sig: ir.FuncOf(ir.I32, ir.I32)}
		g.m.AddFunc(f)
		return f, nil
	}
	return nil, fmt.Errorf("call to unknown function %q", name)
}

// call lowers a function call, coercing arguments to the callee signature.
func (g *gen) call(x *ast.CallExpr) (ir.Value, error) {
	callee := g.funcs[x.Name]
	if callee == nil {
		var err error
		callee, err = g.declareExtern(x.Name)
		if err != nil {
			return nil, err
		}
	}
	want := callee.Sig.Params
	args := make([]ir.Value, 0, len(x.Args))
	for i, a := range x.Args {
		v, err := g.rvalue(a)
		if err != nil {
			return nil, fmt.Errorf("arg %d of %s: %w", i, x.Name, err)
		}
		v = g.boolToInt(v)
		if i < len(want) {
			v = g.coerce(v, want[i])
		}
		args = append(args, v)
	}
	if !callee.Variadic && len(args) != len(want) {
		return nil, fmt.Errorf("%s expects %d args, got %d", x.Name, len(want), len(args))
	}
	return g.b.Call(x.Name, callee.Sig.Ret, args...), nil
}
