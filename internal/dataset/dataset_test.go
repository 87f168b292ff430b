package dataset

import (
	"testing"

	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/passes"
)

func TestMBICounts(t *testing.T) {
	d := GenerateMBI(1)
	correct, incorrect := d.CountCorrect()
	if correct != 745 {
		t.Errorf("correct = %d, want 745", correct)
	}
	if incorrect != 1116 {
		t.Errorf("incorrect = %d, want 1116", incorrect)
	}
	byLabel := d.CountByLabel()
	if byLabel[CallOrdering] != 601 {
		t.Errorf("CallOrdering = %d, want 601", byLabel[CallOrdering])
	}
	if byLabel[ResourceLeak] != 14 {
		t.Errorf("ResourceLeak = %d, want 14 (cited in §V-A)", byLabel[ResourceLeak])
	}
	if byLabel[MessageRace] <= byLabel[EpochLifecycle] {
		t.Error("MessageRace should outnumber EpochLifecycle (§V-A)")
	}
}

func TestCorrBenchCounts(t *testing.T) {
	d := GenerateCorrBench(1, false)
	correct, incorrect := d.CountCorrect()
	if correct != 202 {
		t.Errorf("correct = %d, want 202", correct)
	}
	if incorrect != 214 {
		t.Errorf("incorrect = %d, want 214", incorrect)
	}
	byLabel := d.CountByLabel()
	if byLabel[ArgError] != 150 {
		t.Errorf("ArgError = %d, want 150", byLabel[ArgError])
	}
}

func TestAllCodesLower(t *testing.T) {
	for _, d := range []*Dataset{GenerateMBI(2), GenerateCorrBench(2, false), GenerateCorrBench(3, true)} {
		for _, c := range d.Codes {
			if _, err := irgen.Lower(c.Prog); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := GenerateMBI(7)
	b := GenerateMBI(7)
	if len(a.Codes) != len(b.Codes) {
		t.Fatal("nondeterministic dataset size")
	}
	for i := range a.Codes {
		if a.Codes[i].Name != b.Codes[i].Name || a.Codes[i].Label != b.Codes[i].Label {
			t.Fatalf("code %d differs between runs", i)
		}
	}
}

func TestHeaderBiasOnCorrectCodes(t *testing.T) {
	biased := GenerateCorrBench(5, true)
	// Paper §III: biased correct codes have >= 103 lines after preprocessing.
	minCorrect := 1 << 30
	maxIncorrect := 0
	for _, c := range biased.Codes {
		loc := c.LineCount(false)
		if c.Label == Correct {
			if loc < minCorrect {
				minCorrect = loc
			}
		} else if loc > maxIncorrect {
			maxIncorrect = loc
		}
	}
	if minCorrect < 103 {
		t.Errorf("biased correct codes as small as %d lines, want >= 103", minCorrect)
	}
	// After stripping the header expansion the floor disappears.
	stripped := 1 << 30
	for _, c := range biased.Codes {
		if c.Label == Correct {
			if loc := c.LineCount(true); loc < stripped {
				stripped = loc
			}
		}
	}
	if stripped >= 103 {
		t.Errorf("stripping bias left correct floor at %d", stripped)
	}
}

// TestCorrectCodesRunClean simulates a sample of correct codes from both
// suites and requires zero dynamic findings.
func TestCorrectCodesRunClean(t *testing.T) {
	for _, d := range []*Dataset{GenerateMBI(11), GenerateCorrBench(11, false)} {
		n := 0
		for _, c := range d.Codes {
			if c.Incorrect() {
				continue
			}
			n++
			if n%7 != 0 { // sample for speed
				continue
			}
			mod := irgen.MustLower(c.Prog)
			res := mpisim.Run(mod, mpisim.Config{Ranks: c.Ranks})
			if res.Erroneous() {
				t.Errorf("%s flagged: %+v deadlock=%v timeout=%v crash=%v %s",
					c.Name, res.Violations, res.Deadlock, res.Timeout, res.Crashed, res.CrashMsg)
			}
		}
	}
}

// TestErrorCodesAreDetectable simulates a sample of erroneous codes and
// checks the vast majority trip at least one dynamic check. (A small
// remainder is legitimately missed by dynamic analysis, matching the FN
// rows of Table III.)
func TestErrorCodesAreDetectable(t *testing.T) {
	d := GenerateMBI(13)
	tried, caught := 0, 0
	for i, c := range d.Codes {
		if !c.Incorrect() || i%9 != 0 {
			continue
		}
		tried++
		mod := irgen.MustLower(c.Prog)
		res := mpisim.Run(mod, mpisim.Config{Ranks: c.Ranks})
		if res.Erroneous() {
			caught++
		}
	}
	if tried == 0 {
		t.Fatal("no error codes sampled")
	}
	if float64(caught) < 0.9*float64(tried) {
		t.Errorf("dynamic checks caught %d/%d sampled error codes", caught, tried)
	}
}

// TestErrorCodesSurviveOptimization lowers erroneous codes at -O2/-Os and
// checks the pipeline does not crash and MPI calls survive.
func TestErrorCodesSurviveOptimization(t *testing.T) {
	d := GenerateCorrBench(17, false)
	for i, c := range d.Codes {
		if i%11 != 0 {
			continue
		}
		for _, lvl := range []passes.OptLevel{passes.O2, passes.Os} {
			mod := irgen.MustLower(c.Prog)
			passes.Optimize(mod, lvl)
			if err := mod.Verify(); err != nil {
				t.Fatalf("%s at %s: %v", c.Name, lvl, err)
			}
		}
	}
}

func TestStatsFormat(t *testing.T) {
	d := GenerateCorrBench(19, false)
	s := ComputeStats(d, false)
	text := s.Format()
	if len(text) == 0 || s.Correct != 202 {
		t.Errorf("stats malformed: %q", text)
	}
}

func TestMergeAndFilter(t *testing.T) {
	mbi := GenerateMBI(23)
	corr := GenerateCorrBench(23, false)
	mix := Merge("Mix", mbi, corr)
	if len(mix.Codes) != len(mbi.Codes)+len(corr.Codes) {
		t.Error("merge lost codes")
	}
	correct := 0
	for _, c := range mix.Codes {
		if !c.Incorrect() {
			correct++
		}
	}
	if correct != 745+202 {
		t.Errorf("merged %d correct codes", correct)
	}
}
