package verify

import (
	"context"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
)

// slice returns a small label-stratified subset for fast tool runs.
func slice(d *dataset.Dataset, per int) *dataset.Dataset {
	out := &dataset.Dataset{Name: d.Name}
	counts := map[dataset.Label]int{}
	for _, c := range d.Codes {
		if counts[c.Label] < per {
			counts[c.Label]++
			out.Codes = append(out.Codes, c)
		}
	}
	return out
}

// filter returns the codes of d that keep accepts.
func filter(d *dataset.Dataset, keep func(*dataset.Code) bool) *dataset.Dataset {
	out := &dataset.Dataset{Name: d.Name}
	for _, c := range d.Codes {
		if keep(c) {
			out.Codes = append(out.Codes, c)
		}
	}
	return out
}

func TestITACPrecision(t *testing.T) {
	d := slice(dataset.GenerateMBI(3), 6)
	c := Evaluate(ITAC{}, d)
	if c.Total()+c.Errors() != len(d.Codes) {
		t.Fatalf("verdicts %d+%d != %d codes", c.Total(), c.Errors(), len(d.Codes))
	}
	// ITAC's archetype behaviour: near-perfect precision and a sizeable
	// timeout column from deadlocking codes.
	if c.FP > 1 {
		t.Errorf("ITAC-like produced %d false positives", c.FP)
	}
	if c.TO == 0 {
		t.Error("ITAC-like produced no timeouts on MBI deadlock codes")
	}
	if c.Conclusiveness() >= 1 {
		t.Error("ITAC-like should be inconclusive on deadlocks")
	}
}

func TestMUSTDetectsDeadlocks(t *testing.T) {
	d := slice(dataset.GenerateMBI(3), 6)
	must := Evaluate(MUST{}, d)
	itac := Evaluate(ITAC{}, d)
	// MUST converts ITAC's timeouts into diagnostics.
	if must.TO >= itac.TO {
		t.Errorf("MUST TO=%d not below ITAC TO=%d", must.TO, itac.TO)
	}
	if must.TP <= itac.TP {
		t.Errorf("MUST TP=%d not above ITAC TP=%d", must.TP, itac.TP)
	}
}

func TestPARCOACHOverApproximates(t *testing.T) {
	d := slice(dataset.GenerateMBI(5), 10)
	c := Evaluate(PARCOACH{}, d)
	// The static tool must produce false positives (its defining trait —
	// Table III reports specificity 0.088).
	if c.FP == 0 {
		t.Error("PARCOACH-like produced no false positives")
	}
	if c.Specificity() > 0.6 {
		t.Errorf("PARCOACH-like specificity %.2f too high to match the archetype", c.Specificity())
	}
	// And it is fully conclusive (static, no timeouts).
	if c.Errors() != 0 {
		t.Errorf("static tool produced %d CE/TO/RE", c.Errors())
	}
}

func TestMPICheckerFindsArgErrors(t *testing.T) {
	d := dataset.GenerateCorrBench(7, false)
	arg := filter(d, func(c *dataset.Code) bool { return c.Label == dataset.ArgError })
	arg.Codes = arg.Codes[:30]
	c := Evaluate(MPIChecker{}, arg)
	if c.TP < 15 {
		t.Errorf("MPI-Checker-like caught only %d/30 ArgError codes", c.TP)
	}
}

func TestToolsOnCorrectCodes(t *testing.T) {
	d := dataset.GenerateCorrBench(9, false)
	correct := filter(d, func(c *dataset.Code) bool { return !c.Incorrect() })
	correct.Codes = correct.Codes[:25]
	// Dynamic tools must not flag correct codes.
	for _, tool := range []Tool{ITAC{}, MUST{}} {
		c := Evaluate(tool, correct)
		if c.FP != 0 {
			t.Errorf("%s flagged %d correct codes", tool.Name(), c.FP)
		}
	}
}

// TestEvaluateParallelMatchesSerial pins the parallel Evaluate fan-out
// to bit-identical confusion matrices against the serial reference, for
// both a dynamic and a static tool.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	d := slice(dataset.GenerateMBI(3), 5)
	for _, tool := range []Tool{MUST{}, PARCOACH{}} {
		got := Evaluate(tool, d)
		want := evaluateSerial(tool, d)
		if got != want {
			t.Errorf("%s: parallel confusion %+v != serial %+v", tool.Name(), got, want)
		}
	}
}

// TestExplicitBudgetCapsRuns: a tiny step budget turns every nontrivial
// code into a deterministic timeout, proving the harness budget is
// threaded through to the simulator instead of the 200k-step default.
func TestExplicitBudgetCapsRuns(t *testing.T) {
	d := slice(dataset.GenerateMBI(3), 2)
	starved := Evaluate(ITAC{Budget: Budget{MaxSteps: 10}}, d)
	if starved.TP+starved.TN+starved.FP+starved.FN != 0 {
		t.Errorf("10-step budget still produced conclusive verdicts: %+v", starved)
	}
	if starved.TO == 0 {
		t.Errorf("10-step budget produced no timeouts: %+v", starved)
	}
	// And the zero-value budget matches the historical default exactly.
	if got, want := Evaluate(ITAC{}, d), evaluateSerial(ITAC{Budget: Budget{MaxSteps: DefaultMaxSteps}}, d); got != want {
		t.Errorf("zero budget %+v != explicit default budget %+v", got, want)
	}
}

// TestCheckModuleCancellation: a dead context makes a dynamic tool
// return an inconclusive, cancellation-marked verdict.
func TestCheckModuleCancellation(t *testing.T) {
	d := slice(dataset.GenerateMBI(3), 1)
	m, err := irgen.Lower(d.Codes[0].Prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tool := range []ModuleChecker{ITAC{}, MUST{}} {
		v := tool.CheckModule(ctx, m, mpisim.Config{Ranks: 2})
		if !v.Canceled || !v.TO {
			t.Errorf("%s: canceled run returned %+v, want Canceled+TO", tool.Name(), v)
		}
	}
	// Static tools still answer under a dead context.
	for _, tool := range []ModuleChecker{PARCOACH{}, MPIChecker{}} {
		if v := tool.CheckModule(ctx, m, mpisim.Config{}); v.Canceled {
			t.Errorf("%s: static tool reported cancellation", tool.Name())
		}
	}
}

func TestVerdictNames(t *testing.T) {
	for _, tool := range []Tool{ITAC{}, MUST{}, PARCOACH{}, MPIChecker{}} {
		if tool.Name() == "" {
			t.Error("tool without a name")
		}
	}
}

// TestInterpret pins how ITAC and MUST read each shape of simulated run.
// The two share one reading and differ only on a deadlock: ITAC waits it
// out into an inconclusive timeout, MUST reports it.
func TestInterpret(t *testing.T) {
	leak := mpisim.Violation{Kind: mpisim.VResourceLeak, Rank: 1, Msg: "window never freed"}
	cases := []struct {
		name       string
		res        mpisim.Result
		itac, must Verdict
	}{
		{"canceled", mpisim.Result{Canceled: true, Deadlock: true},
			Verdict{TO: true, Canceled: true, Reason: "canceled"},
			Verdict{TO: true, Canceled: true, Reason: "canceled"}},
		{"deadlock", mpisim.Result{Deadlock: true},
			Verdict{TO: true, Reason: "timeout"},
			Verdict{Flagged: true, Reason: "deadlock detected"}},
		{"deadlock-after-crash", mpisim.Result{Deadlock: true, Crashed: true, CrashMsg: "rank 0: boom"},
			Verdict{TO: true, Reason: "timeout"},
			Verdict{RE: true, Reason: "rank 0: boom"}},
		{"step-timeout", mpisim.Result{Timeout: true},
			Verdict{TO: true, Reason: "timeout"},
			Verdict{TO: true, Reason: "timeout"}},
		{"wall-timeout", mpisim.Result{Timeout: true, WallTimeout: true},
			Verdict{TO: true, Wall: true, Reason: "timeout"},
			Verdict{TO: true, Wall: true, Reason: "timeout"}},
		{"crash", mpisim.Result{Crashed: true, CrashMsg: "rank 1: load out of bounds",
			Violations: []mpisim.Violation{leak}},
			Verdict{RE: true, Reason: "rank 1: load out of bounds"},
			Verdict{RE: true, Reason: "rank 1: load out of bounds"}},
		{"first-violation", mpisim.Result{Violations: []mpisim.Violation{leak,
			{Kind: mpisim.VTypeMismatch, Rank: 0, Msg: "second"}}},
			Verdict{Flagged: true, Reason: leak.String()},
			Verdict{Flagged: true, Reason: leak.String()}},
		{"clean", mpisim.Result{Steps: 1234, Output: "hello\n"}, Verdict{}, Verdict{}},
	}
	for _, tc := range cases {
		if got := (ITAC{}).Interpret(&tc.res); got != tc.itac {
			t.Errorf("%s: ITAC reads %+v, want %+v", tc.name, got, tc.itac)
		}
		if got := (MUST{}).Interpret(&tc.res); got != tc.must {
			t.Errorf("%s: MUST reads %+v, want %+v", tc.name, got, tc.must)
		}
	}
}
