package core

import (
	"testing"

	"mpidetect/internal/dataset"
)

func TestLocalizeErrorRuns(t *testing.T) {
	train := trainingSlice(7, 30)
	cfg := DefaultIR2VecConfig()
	cfg.Dim = 48
	det, err := TrainIR2Vec(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buggy, _ := dataset.HypreCase(1)
	sus, err := LocalizeErrorCached(det, buggy.Prog, NewVerdictCache(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sus) < 5 {
		t.Fatalf("localization returned %d units, want >= 5 (one per function + main)", len(sus))
	}
	names := map[string]bool{}
	for _, s := range sus {
		names[s.Function] = true
	}
	for _, want := range []string{"hypre_ExchangeBoundary", "hypre_SMGRelax", "main"} {
		if !names[want] {
			t.Errorf("localization missing unit %q", want)
		}
	}
	// Scores must be sorted descending.
	for i := 1; i < len(sus); i++ {
		if sus[i].Score > sus[i-1].Score {
			t.Fatal("suspicions not sorted by score")
		}
	}
}
