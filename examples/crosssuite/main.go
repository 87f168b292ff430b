// Crosssuite: reproduce a slice of the paper's hardest scenario — train on
// one benchmark suite and detect errors in the other (Table II "Cross") —
// and compare the ML verdicts against the PARCOACH-like static analyzer on
// the same validation codes.
package main

import (
	"fmt"

	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/metrics"
	"mpidetect/internal/verify"
)

func main() {
	mbi := dataset.GenerateMBI(1)
	corr := dataset.GenerateCorrBench(1, false)

	fmt.Println("training IR2Vec+DT on MBI...")
	det, err := core.TrainIR2Vec(mbi, core.DefaultIR2VecConfig())
	if err != nil {
		panic(err)
	}

	var ml, parcoach metrics.Confusion
	tool := verify.PARCOACH{}
	for _, c := range corr.Codes {
		v, err := core.CheckProgram(det, c.Prog)
		if err != nil {
			panic(err)
		}
		ml.Record(c.Incorrect(), v.Incorrect)
		pv := tool.Check(c)
		parcoach.Record(c.Incorrect(), pv.Flagged)
	}
	fmt.Println("validation: MPI-CorrBench (never seen during training)")
	fmt.Printf("%-24s %s\n", "IR2Vec+DT (cross)", ml.Row())
	fmt.Printf("%-24s %s\n", tool.Name(), parcoach.Row())
	fmt.Println("\nNote the static tool's false-positive count: like the real")
	fmt.Println("PARCOACH it flags rank-dependent control flow conservatively,")
	fmt.Println("while the learned model transfers its notion of correctness.")
}
