package mpisim

import (
	"context"

	"mpidetect/internal/ir"
)

// Test-only API: production code does not call it.

// Mod returns the module the program was compiled from.
func (p *Program) Mod() *ir.Module { return p.mod }

// RunCtx is Run under a caller context; see Program.RunCtx.
func RunCtx(ctx context.Context, mod *ir.Module, cfg Config) *Result {
	return Compile(mod).RunCtx(ctx, cfg)
}

// Run simulates the compiled program.
func (p *Program) Run(cfg Config) *Result {
	return p.RunCtx(context.Background(), cfg)
}

// Has reports whether a violation of kind k was recorded.
func (r *Result) Has(k ViolationKind) bool {
	for _, v := range r.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}
