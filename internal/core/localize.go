package core

import (
	"sort"
	"time"

	"mpidetect/internal/ast"
	"mpidetect/internal/cache"
	"mpidetect/internal/ir"
	"mpidetect/internal/par"
)

// FunctionSuspicion scores one function of a program.
type FunctionSuspicion struct {
	Function  string
	Incorrect bool
	// Score orders functions by how confidently the detector flags the
	// compilation unit containing only this function (plus main's context).
	Score float64
}

// VerdictCache is a content-addressed verdict cache keyed by
// DigestProgram/DigestIR digests; LocalizeErrorCached routes every
// per-unit classification through one, so repeated localisations of the
// same program (CI re-checks, per-commit fault scans) pay the pipeline
// once per distinct unit.
//
// A VerdictCache is bound to the training state of the detectors used
// with it: digests deliberately exclude model weights (see the digest
// contract in digest.go), so after retraining or reloading a detector
// the caller MUST discard the cache (or sweep it with InvalidatePrefix)
// — reusing it would serve the predecessor model's verdicts as hits.
// internal/serve automates exactly this via Registry.OnReplace.
type VerdictCache = cache.Cache[Verdict]

// NewVerdictCache builds a verdict cache. capacity <= 0 and ttl <= 0
// take the cache package defaults (4096 entries, no expiry).
func NewVerdictCache(capacity int, ttl time.Duration) *VerdictCache {
	return cache.New[Verdict](cache.Config{Capacity: capacity, TTL: ttl})
}

// LocalizeError implements the paper's §VI direction: "applying our models
// at different code granularities by extracting the code into different
// compilation units — whether or not an error is detected across the
// different compilation units can serve as a guideline for the exact error
// location". The program is re-sliced into one compilation unit per
// non-main function (each unit = that function plus a synthetic main
// calling it); the detector classifies every unit, and functions whose
// units are flagged are returned first.
func LocalizeError(d Detector, p *ast.Program) ([]FunctionSuspicion, error) {
	return localize(d, p, nil)
}

// LocalizeErrorCached is LocalizeError with every per-unit verdict served
// through c: units already judged (by digest, not by pointer identity)
// skip the compile→embed→predict pipeline entirely, and concurrent
// localisations of the same program coalesce on one execution per unit.
func LocalizeErrorCached(d Detector, p *ast.Program, c *VerdictCache) ([]FunctionSuspicion, error) {
	return localize(d, p, c)
}

func localize(d Detector, p *ast.Program, c *VerdictCache) ([]FunctionSuspicion, error) {
	type unit struct {
		name string
		prog *ast.Program
	}
	var units []unit
	for _, f := range p.Funcs {
		if f.Name == "main" {
			continue
		}
		units = append(units, unit{f.Name, sliceUnit(p, f)})
	}
	// Whole-program verdict for main itself.
	units = append(units, unit{"main", p})

	// One classification per unit, fanned across cores; the detector is
	// read-only after training so concurrent CheckProgram calls are safe.
	scored := make([]*FunctionSuspicion, len(units))
	par.Map(len(units), func(i int) {
		u := units[i]
		check := func() (Verdict, error) { return CheckProgram(d, u.prog) }
		var v Verdict
		var err error
		if c != nil {
			v, err = c.GetOrCompute(DigestProgram(d, u.prog), check)
		} else {
			v, err = check()
		}
		if err != nil {
			// Units that fail to compile in isolation are skipped (the
			// paper's granularity study tolerates partial units).
			return
		}
		scored[i] = &FunctionSuspicion{Function: u.name, Incorrect: v.Incorrect, Score: condScore(v)}
	})
	var out []FunctionSuspicion
	for _, s := range scored {
		if s != nil {
			out = append(out, *s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

func condScore(v Verdict) float64 {
	if v.Incorrect {
		return v.Confidence
	}
	return -v.Confidence
}

// sliceUnit builds a compilation unit holding one function wrapped in a
// synthetic main that performs the MPI prologue/epilogue and invokes it
// with simple arguments.
func sliceUnit(p *ast.Program, f *ast.FuncDecl) *ast.Program {
	stmts := ast.MPIBoilerplate()
	args := make([]ast.Expr, len(f.Params))
	for i, prm := range f.Params {
		switch prm.Name {
		case "rank":
			args[i] = ast.Id("rank")
		case "size":
			args[i] = ast.Id("size")
		default:
			args[i] = argFor(prm.Type)
		}
	}
	call := &ast.CallExpr{Name: f.Name, Args: args}
	if f.Ret.Kind == ast.TVoid {
		stmts = append(stmts, ast.X(call))
	} else {
		stmts = append(stmts, ast.Decl("unit_result", f.Ret, call))
	}
	stmts = append(stmts, ast.Finalize())
	return &ast.Program{
		Name:     p.Name + "." + f.Name,
		Includes: p.Includes,
		Funcs: []*ast.FuncDecl{f,
			ast.Fn("main", ast.Int, nil, append(stmts, ast.Ret(ast.I(0)))...)},
	}
}

func argFor(t *ast.Type) ast.Expr {
	switch t.Kind {
	case ast.TDouble:
		return ast.F(1.0)
	default:
		return ast.I(1)
	}
}

// IRFunctions splits a compiled module into per-function instruction
// counts, a cheap structural profile used by callers that want to report
// the suspicious unit's size alongside the suspicion score.
func IRFunctions(m *ir.Module) map[string]int {
	out := map[string]int{}
	for _, f := range m.Defined() {
		out[f.Name] = f.NumInstrs()
	}
	return out
}
