package passes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpisim"
)

// ConstFold and the simulator evaluate IR arithmetic through the same
// definitions in package ir. The tests below run one instruction on
// constant operands both ways: the simulator executes it and prints the
// result, and ConstFold folds it and the simulator prints the folded
// constant. Wherever the folder folds, the two outputs must be the same
// bytes; wherever it declines, the case must be one of the declared
// differences, and the simulator's own answer is pinned.

// evalTemplate is main: one instruction (rewritten per case), then a
// printf of its value.
const evalTemplate = `@fmt = constant [4 x i8] c"%%%s\0A\00"

define i32 @main() {
entry:
  %%r = add i64 0, 0
  %%p = getelementptr i8, [4 x i8]* @fmt, i64 0, i64 0
  %%c = call i32 @printf(i8* %%p, i64 %%r)
  ret i32 0
}

declare i32 @printf(i8*, ...)
`

// evalCase builds the one-instruction program: op (with predicate p for
// a compare) of result type typ on operands x and y. A conversion uses
// x only. verb is the printf verb of the result, d or f.
func evalCase(t *testing.T, op ir.Opcode, p ir.Pred, typ *ir.Type, verb string, args ...ir.Value) *ir.Module {
	t.Helper()
	m, err := ir.Parse(fmt.Sprintf(evalTemplate, verb))
	if err != nil {
		t.Fatal(err)
	}
	in := m.FuncByName("main").Entry().Instrs[0]
	in.Op, in.Cmp, in.Typ, in.Args = op, p, typ, args
	return m
}

// evalBoth returns what the simulator prints for the program as built,
// whether ConstFold folded its instruction, and what the simulator
// prints for the folded program.
func evalBoth(t *testing.T, m *ir.Module) (sim string, folded bool, fold string) {
	t.Helper()
	sim = run(t, m)
	f := m.FuncByName("main")
	ConstFold(f)
	instrs := f.Entry().Instrs
	printf := instrs[len(instrs)-2]
	if _, folded = printf.Args[1].(*ir.Const); !folded {
		return sim, false, ""
	}
	return sim, true, run(t, m)
}

// run simulates m on one rank and returns its output, or its crash.
func run(t *testing.T, m *ir.Module) string {
	t.Helper()
	res := mpisim.Run(m, mpisim.Config{Ranks: 1})
	if res.Crashed {
		return "crash: " + res.CrashMsg
	}
	return strings.TrimSpace(res.Output)
}

var (
	intTypes  = []*ir.Type{ir.I1, ir.I8, ir.I32, ir.I64}
	intOps    = []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr}
	floatOps  = []ir.Opcode{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv}
	preds     = []ir.Pred{ir.PredEQ, ir.PredNE, ir.PredSLT, ir.PredSLE, ir.PredSGT, ir.PredSGE}
	intEdges  = []int64{0, 1, -1, 2, 7, 63, 64, 127, -128, 255, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	floatEdge = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
)

// operands returns the edge values representable in t, deduplicated.
func operands(t *ir.Type) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, v := range intEdges {
		if w := ir.Wrap(t, v); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func TestFoldMatchesSimulatorInt(t *testing.T) {
	folds := 0
	for _, typ := range intTypes {
		for _, op := range intOps {
			for _, a := range operands(typ) {
				for _, b := range operands(typ) {
					name := fmt.Sprintf("%s %s %d, %d", op, typ, a, b)
					sim, folded, fold := evalBoth(t, evalCase(t, op, 0, typ, "d",
						ir.ConstInt(typ, a), ir.ConstInt(typ, b)))
					if folded {
						folds++
						if fold != sim {
							t.Errorf("%s: folds to %s, simulates to %s", name, fold, sim)
						}
						continue
					}
					// The declared differences: the folder leaves these to run time.
					switch {
					case (op == ir.OpSDiv || op == ir.OpSRem) && b == 0:
						want := "crash: rank 0: integer division by zero"
						if op == ir.OpSRem {
							want = "crash: rank 0: integer remainder by zero"
						}
						if sim != want {
							t.Errorf("%s: simulates to %q, want %q", name, sim, want)
						}
					case (op == ir.OpShl || op == ir.OpAShr) && (b < 0 || b > 63):
						// The simulator shifts by the low six bits.
						r, _ := ir.IntBinary(op, typ, a, b&63)
						if want := strconv.FormatInt(r, 10); sim != want {
							t.Errorf("%s: simulates to %s, want %s (shift by %d)", name, sim, want, b&63)
						}
					default:
						t.Errorf("%s: not folded (simulates to %s)", name, sim)
					}
				}
			}
		}
	}
	if folds == 0 {
		t.Fatal("nothing folded")
	}
}

func TestFoldMatchesSimulatorFloat(t *testing.T) {
	for _, op := range floatOps {
		for _, a := range floatEdge {
			for _, b := range floatEdge {
				name := fmt.Sprintf("%s %g, %g", op, a, b)
				sim, folded, fold := evalBoth(t, evalCase(t, op, 0, ir.F64, "f",
					ir.ConstFloat(a), ir.ConstFloat(b)))
				switch {
				case folded && fold != sim:
					t.Errorf("%s: folds to %s, simulates to %s", name, fold, sim)
				case !folded && op == ir.OpFDiv && b == 0:
					// Declared difference: the simulator divides by zero.
					if want := strconv.FormatFloat(a/b, 'g', -1, 64); sim != want {
						t.Errorf("%s: simulates to %s, want %s", name, sim, want)
					}
				case !folded:
					t.Errorf("%s: not folded (simulates to %s)", name, sim)
				}
			}
		}
	}
}

func TestFoldMatchesSimulatorCompare(t *testing.T) {
	for _, p := range preds {
		for _, typ := range intTypes {
			for _, a := range operands(typ) {
				for _, b := range operands(typ) {
					sim, folded, fold := evalBoth(t, evalCase(t, ir.OpICmp, p, ir.I1, "d",
						ir.ConstInt(typ, a), ir.ConstInt(typ, b)))
					if !folded || fold != sim {
						t.Errorf("icmp %s %s %d, %d: folded %v to %q, simulates to %q", p, typ, a, b, folded, fold, sim)
					}
				}
			}
		}
		for _, a := range floatEdge {
			for _, b := range floatEdge {
				sim, folded, fold := evalBoth(t, evalCase(t, ir.OpFCmp, p, ir.I1, "d",
					ir.ConstFloat(a), ir.ConstFloat(b)))
				if !folded || fold != sim {
					t.Errorf("fcmp %s %g, %g: folded %v to %q, simulates to %q", p.FPredName(), a, b, folded, fold, sim)
				}
			}
		}
	}
}

// TestFoldMatchesSimulatorConv covers trunc, sext and fptosi, which both
// wrap to the result width, and pins the one declared difference, zext:
// the folder zero-extends from the source width and wraps to the result,
// while the simulator returns the value it holds unchanged. So zext i8 -1
// to i32 folds to 255 and simulates to -1.
func TestFoldMatchesSimulatorConv(t *testing.T) {
	mask := map[*ir.Type]int64{ir.I1: 1, ir.I8: 0xff, ir.I32: 0xffffffff, ir.I64: -1}
	for _, from := range intTypes {
		for _, to := range intTypes {
			for _, v := range operands(from) {
				for _, op := range []ir.Opcode{ir.OpTrunc, ir.OpSExt, ir.OpZExt} {
					name := fmt.Sprintf("%s %s %d to %s", op, from, v, to)
					sim, folded, fold := evalBoth(t, evalCase(t, op, 0, to, "d", ir.ConstInt(from, v)))
					switch {
					case !folded:
						t.Errorf("%s: not folded", name)
					case op != ir.OpZExt:
						if fold != sim {
							t.Errorf("%s: folds to %s, simulates to %s", name, fold, sim)
						}
					case fold != strconv.FormatInt(ir.Wrap(to, v&mask[from]), 10) || sim != strconv.FormatInt(v, 10):
						t.Errorf("%s: folds to %s and simulates to %s, want %d and %d",
							name, fold, sim, ir.Wrap(to, v&mask[from]), v)
					}
				}
			}
		}
	}
	for _, to := range intTypes {
		for _, f := range []float64{0, -1, 2.9, -2.9, 300, -129.5} {
			sim, folded, fold := evalBoth(t, evalCase(t, ir.OpFPToSI, 0, to, "d", ir.ConstFloat(f)))
			if !folded || fold != sim {
				t.Errorf("fptosi double %g to %s: folded %v to %q, simulates to %q", f, to, folded, fold, sim)
			}
		}
	}
}
