// Quickstart: train an IR2Vec+decision-tree detector on the synthetic
// MPI-CorrBench suite, then classify held-out codes it has never seen —
// the Intra scenario of the paper in miniature. Each verdict is also
// cross-checked against the dynamic verifier (the runtime simulator).
package main

import (
	"fmt"
	"log"

	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
)

func main() {
	// 1. A labelled training corpus: the synthetic MPI-CorrBench suite.
	train := dataset.GenerateCorrBench(1, false)
	fmt.Printf("training IR2Vec+DT on %d codes...\n\n", len(train.Codes))
	det, err := core.TrainIR2Vec(train, core.DefaultIR2VecConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Held-out codes from a different generation seed (never seen).
	heldOut := dataset.GenerateCorrBench(777, false)
	picks := []*dataset.Code{}
	wantLabels := []dataset.Label{dataset.Correct, dataset.ArgError,
		dataset.ArgMismatch, dataset.MissingCall, dataset.Correct}
	used := map[int]bool{}
	for _, want := range wantLabels {
		for i, c := range heldOut.Codes {
			if c.Label == want && !used[i] {
				used[i] = true
				picks = append(picks, c)
				break
			}
		}
	}

	// 3. Classify, and cross-check with the dynamic verifier.
	hits := 0
	for _, c := range picks {
		v, err := core.CheckProgram(det, c.Prog)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "correct"
		if v.Incorrect {
			verdict = "INCORRECT"
		}
		mark := "miss"
		if v.Incorrect == c.Incorrect() {
			mark = "hit"
			hits++
		}
		res := mpisim.Run(irgen.MustLower(c.Prog), mpisim.Config{Ranks: c.Ranks})
		dyn := "clean"
		if res.Erroneous() {
			dyn = "flagged"
		}
		fmt.Printf("%-34s truth=%-18s model=%-9s (%s)  dynamic=%s\n",
			c.Name, c.Label, verdict, mark, dyn)
	}
	fmt.Printf("\n%d/%d held-out codes classified correctly\n", hits, len(picks))
}
