// Package verify implements the expert verification tools the paper
// compares against (Table III, Fig. 7): a PARCOACH-like static collective
// analysis, an MPI-Checker-like static argument/request checker, and two
// dynamic checkers in the mould of ITAC and MUST that actually execute the
// programs on the runtime simulator. Each tool reproduces the signature
// behaviour of its archetype: PARCOACH's over-approximation (huge FP count,
// specificity near 0.09), ITAC's timeouts on deadlocking codes
// (conclusiveness < 1), and MUST's deadlock detection.
package verify

import (
	"context"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/metrics"
	"mpidetect/internal/mpi"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/par"
)

// Verdict is one tool's outcome on one code.
type Verdict struct {
	Flagged  bool   // the tool reported an error
	CE       bool   // compilation error
	TO       bool   // timeout
	Wall     bool   // the TO came from the wall-clock budget (load-dependent)
	RE       bool   // runtime/tool error
	Canceled bool   // the caller's context expired mid-run (always with TO)
	Reason   string // first diagnostic
}

// Tool is a verification tool under evaluation.
type Tool interface {
	Name() string
	Check(c *dataset.Code) Verdict
}

// ModuleChecker is implemented by tools that can analyze an already-
// compiled module under a caller-provided context and simulation
// configuration — the serving path, where programs arrive as textual IR
// and every dynamic run must answer to a request deadline. Static tools
// ignore ctx and cfg.
type ModuleChecker interface {
	Tool
	CheckModule(ctx context.Context, m *ir.Module, cfg mpisim.Config) Verdict
}

// ProgramChecker is implemented by the dynamic tools, which execute
// programs on the runtime simulator: CheckProgram analyzes a
// pre-compiled simulator program (mpisim.Compile), so a caller that
// fans one program out to several tools — or to several world sizes —
// compiles it exactly once. The compiled form is rank-independent.
//
// A tool's verdict is a reading of one simulated run: CheckProgram is
// Interpret(prog.RunCtx(ctx, cfg)). The run is deterministic and the
// same for every dynamic tool, so a caller that wants several dynamic
// verdicts on one program and configuration simulates once and hands
// the Result to each tool's Interpret.
type ProgramChecker interface {
	ModuleChecker
	CheckProgram(ctx context.Context, prog *mpisim.Program, cfg mpisim.Config) Verdict
	Interpret(res *mpisim.Result) Verdict
}

// DefaultMaxSteps is the explicit per-rank step budget the harness hands
// the simulator. It pins the mpisim default so tool timeouts stay
// deterministic even if the simulator's own default moves.
const DefaultMaxSteps = 200_000

// Evaluate runs a tool over a dataset and tallies Table III counts.
// Verdicts are computed in parallel (the dynamic tools dominate eval
// wall-clock); the tally itself is a sequential fold over the per-code
// verdicts, so the confusion matrix is identical to a serial evaluation.
func Evaluate(t Tool, d *dataset.Dataset) metrics.Confusion {
	verdicts := make([]Verdict, len(d.Codes))
	par.Map(len(d.Codes), func(i int) { verdicts[i] = t.Check(d.Codes[i]) })
	return tally(d, verdicts)
}

func tally(d *dataset.Dataset, verdicts []Verdict) metrics.Confusion {
	var c metrics.Confusion
	for i, code := range d.Codes {
		v := verdicts[i]
		switch {
		case v.CE:
			c.CE++
		case v.TO:
			c.TO++
		case v.RE:
			c.RE++
		default:
			c.Record(code.Incorrect(), v.Flagged)
		}
	}
	return c
}

// lower returns the code's IR module, lowering at most once per code:
// the module is memoized on the Code, so a corpus evaluated by several
// tools (Table III, Fig. 7) pays one lowering per program instead of
// one per program-tool pair. Tools treat modules as read-only.
func lower(c *dataset.Code) (*ir.Module, bool) {
	m, _ := c.Memo(dataset.MemoModule, func() any {
		m, err := irgen.Lower(c.Prog)
		if err != nil {
			return (*ir.Module)(nil)
		}
		return m
	}).(*ir.Module)
	return m, m != nil
}

// compiled returns the code's pre-compiled simulator program, compiling
// at most once per code; ITAC and MUST share the result.
func compiled(c *dataset.Code, m *ir.Module) *mpisim.Program {
	return c.Memo(dataset.MemoProgram, func() any {
		return mpisim.Compile(m)
	}).(*mpisim.Program)
}

// ---------------------------------------------------------------------------
// ITAC- and MUST-like dynamic checkers: both execute the program with
// runtime checking and read the same run; they differ only on a
// deadlock, which ITAC waits out until the harness timeout
// (inconclusive) and MUST's wait-for-graph detector reports.
// ---------------------------------------------------------------------------

// ITAC is the dynamic trace analyzer archetype.
type ITAC struct{}

// Name implements Tool.
func (ITAC) Name() string { return "ITAC-like (dynamic)" }

// Check implements Tool.
func (t ITAC) Check(c *dataset.Code) Verdict { return checkCode(t, c) }

// CheckModule implements ModuleChecker.
func (t ITAC) CheckModule(ctx context.Context, m *ir.Module, cfg mpisim.Config) Verdict {
	return t.CheckProgram(ctx, mpisim.Compile(m), cfg)
}

// CheckProgram implements ProgramChecker.
func (t ITAC) CheckProgram(ctx context.Context, prog *mpisim.Program, cfg mpisim.Config) Verdict {
	return t.Interpret(prog.RunCtx(ctx, cfg))
}

// Interpret implements ProgramChecker: a deadlock is an inconclusive
// timeout.
func (ITAC) Interpret(res *mpisim.Result) Verdict { return interpret(res, false) }

// MUST is the runtime-correctness-tool archetype.
type MUST struct{}

// Name implements Tool.
func (MUST) Name() string { return "MUST-like (dynamic)" }

// Check implements Tool.
func (t MUST) Check(c *dataset.Code) Verdict { return checkCode(t, c) }

// CheckModule implements ModuleChecker.
func (t MUST) CheckModule(ctx context.Context, m *ir.Module, cfg mpisim.Config) Verdict {
	return t.CheckProgram(ctx, mpisim.Compile(m), cfg)
}

// CheckProgram implements ProgramChecker.
func (t MUST) CheckProgram(ctx context.Context, prog *mpisim.Program, cfg mpisim.Config) Verdict {
	return t.Interpret(prog.RunCtx(ctx, cfg))
}

// Interpret implements ProgramChecker: a deadlock is a diagnostic.
func (MUST) Interpret(res *mpisim.Result) Verdict { return interpret(res, true) }

// checkCode runs a dynamic tool on a dataset code at the code's rank
// count (the simulator's default of 2 when it gives none) and the
// harness step budget.
func checkCode(t ProgramChecker, c *dataset.Code) Verdict {
	m, ok := lower(c)
	if !ok {
		return Verdict{CE: true}
	}
	return t.CheckProgram(context.Background(), compiled(c, m),
		mpisim.Config{Ranks: c.Ranks, MaxSteps: DefaultMaxSteps})
}

// interpret is the reading of a run that ITAC and MUST share.
// detectsDeadlock selects the one difference: without a deadlock
// detector the real tool waits for completion until the harness kills
// it, so the deadlock is an inconclusive timeout, checked before a crash
// as the hang is what the tool observes; with one it is a diagnostic.
func interpret(res *mpisim.Result, detectsDeadlock bool) Verdict {
	switch {
	case res.Canceled:
		return Verdict{TO: true, Canceled: true, Reason: "canceled"}
	case res.Timeout, res.Deadlock && !detectsDeadlock:
		return Verdict{TO: true, Wall: res.WallTimeout, Reason: "timeout"}
	case res.Crashed:
		return Verdict{RE: true, Reason: res.CrashMsg}
	case res.Deadlock:
		return Verdict{Flagged: true, Reason: "deadlock detected"}
	case len(res.Violations) > 0:
		return Verdict{Flagged: true, Reason: res.Violations[0].String()}
	}
	return Verdict{}
}

// ---------------------------------------------------------------------------
// PARCOACH-like static analysis: flags collective operations that are
// control-dependent on rank-derived values. Deliberately over-approximate
// (path-insensitive), reproducing the real tool's false-positive storm on
// benchmarks whose correct codes also branch on the rank.
// ---------------------------------------------------------------------------

// PARCOACH is the static collective-verification archetype.
type PARCOACH struct{}

// Name implements Tool.
func (PARCOACH) Name() string { return "PARCOACH-like (static)" }

// Check implements Tool.
func (t PARCOACH) Check(c *dataset.Code) Verdict {
	m, ok := lower(c)
	if !ok {
		return Verdict{CE: true}
	}
	return t.CheckModule(context.Background(), m, mpisim.Config{})
}

// CheckModule implements ModuleChecker; the analysis is static, so ctx
// and cfg are ignored.
func (PARCOACH) CheckModule(_ context.Context, m *ir.Module, _ mpisim.Config) Verdict {
	for _, f := range m.Defined() {
		tainted := rankTaintedValues(f)
		hasTaintedBranch := false
		for _, b := range f.Blocks {
			if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
				if tainted[t.Args[0]] {
					hasTaintedBranch = true
				}
			}
		}
		if !hasTaintedBranch {
			continue
		}
		// Any blocking/collective MPI operation in a function with
		// rank-dependent control flow is (conservatively) a potential
		// mismatch.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				name := in.MPICallName()
				if name == "" {
					continue
				}
				op, _ := mpi.FromName(name)
				if mpi.IsCollective(op) || op == mpi.OpFinalize {
					return Verdict{Flagged: true,
						Reason: "possible collective mismatch: " + name + " under rank-dependent control flow"}
				}
			}
		}
	}
	// Secondary check: obviously mismatched collective sequences across
	// sibling branches (the tool's core strength).
	if mismatchedBranchCollectives(m) {
		return Verdict{Flagged: true, Reason: "collective sequence differs between branches"}
	}
	return Verdict{}
}

// rankTaintedValues computes the set of values derived from the rank
// output of MPI_Comm_rank via a simple forward data-flow closure.
func rankTaintedValues(f *ir.Func) map[ir.Value]bool {
	tainted := map[ir.Value]bool{}
	// Seed: pointers passed to MPI_Comm_rank.
	rankPtrs := map[ir.Value]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.MPICallName() == "MPI_Comm_rank" && len(in.Args) >= 2 {
				rankPtrs[in.Args[1]] = true
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if tainted[in] {
					continue
				}
				taint := false
				switch in.Op {
				case ir.OpLoad:
					if rankPtrs[in.Args[0]] || tainted[in.Args[0]] {
						taint = true
					}
				default:
					for _, a := range in.Args {
						if tainted[a] {
							taint = true
							break
						}
					}
				}
				if taint {
					tainted[in] = true
					changed = true
				}
			}
		}
	}
	return tainted
}

// mismatchedBranchCollectives detects condbr arms whose collective call
// sequences differ (PARCOACH's classic check).
func mismatchedBranchCollectives(m *ir.Module) bool {
	for _, f := range m.Defined() {
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpCondBr {
				continue
			}
			a := collectiveSeq(t.Blocks[0])
			c := collectiveSeq(t.Blocks[1])
			if len(a) != len(c) {
				return true
			}
			for i := range a {
				if a[i] != c[i] {
					return true
				}
			}
		}
	}
	return false
}

// collectiveSeq lists the collective calls of a single block.
func collectiveSeq(b *ir.Block) []string {
	var out []string
	for _, in := range b.Instrs {
		if name := in.MPICallName(); name != "" {
			if op, ok := mpi.FromName(name); ok && mpi.IsCollective(op) {
				out = append(out, name)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// MPI-Checker-like static checks: AST-level argument validation plus
// request usage checks, path-insensitive.
// ---------------------------------------------------------------------------

// MPIChecker is the Clang-Static-Analyzer-based archetype.
type MPIChecker struct{}

// Name implements Tool.
func (MPIChecker) Name() string { return "MPI-Checker-like (static)" }

// Check implements Tool.
func (t MPIChecker) Check(c *dataset.Code) Verdict {
	m, ok := lower(c)
	if !ok {
		return Verdict{CE: true}
	}
	return t.CheckModule(context.Background(), m, mpisim.Config{})
}

// CheckModule implements ModuleChecker; the analysis is static, so ctx
// and cfg are ignored.
func (MPIChecker) CheckModule(_ context.Context, m *ir.Module, _ mpisim.Config) Verdict {
	for _, f := range m.Defined() {
		starts, waits := 0, 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				name := in.MPICallName()
				if name == "" {
					continue
				}
				op, _ := mpi.FromName(name)
				sig, okSig := mpi.SignatureOf(op)
				if okSig {
					if v := constArg(in, sig.Arg.Count); v != nil && v.Int < 0 {
						return Verdict{Flagged: true, Reason: "negative count in " + name}
					}
					if v := constArg(in, sig.Arg.Tag); v != nil &&
						(v.Int > mpi.TagUB || (v.Int < 0 && v.Int != mpi.AnyTag)) {
						return Verdict{Flagged: true, Reason: "invalid tag in " + name}
					}
					if v := constArg(in, sig.Arg.Datatype); v != nil &&
						(v.Int <= 0 || (v.Int > int64(mpi.DTDerived) && v.Int < 100)) {
						return Verdict{Flagged: true, Reason: "invalid datatype in " + name}
					}
					if v := constArg(in, sig.Arg.Comm); v != nil &&
						v.Int != mpi.CommWorld && v.Int != mpi.CommSelf {
						return Verdict{Flagged: true, Reason: "invalid communicator in " + name}
					}
					if idx := sig.Arg.Buf; idx >= 0 && idx < len(in.Args) {
						if cv, okc := in.Args[idx].(*ir.Const); okc && cv.IsNull {
							if cnt := constArg(in, sig.Arg.Count); cnt == nil || cnt.Int > 0 {
								return Verdict{Flagged: true, Reason: "null buffer in " + name}
							}
						}
					}
				}
				if mpi.StartsRequest(op) {
					starts++
				}
				if op == mpi.OpWait || op == mpi.OpWaitall || op == mpi.OpTest || op == mpi.OpRequestFree {
					waits++
				}
			}
		}
		if starts > waits {
			return Verdict{Flagged: true, Reason: "nonblocking request without completion"}
		}
	}
	return Verdict{}
}

func constArg(in *ir.Instr, idx int) *ir.Const {
	if idx < 0 || idx >= len(in.Args) {
		return nil
	}
	c, _ := in.Args[idx].(*ir.Const)
	return c
}
