// Command mpidetect is the end-to-end detector CLI: it trains a model on a
// benchmark suite, then classifies codes — either benchmark samples or the
// Hypre case study — and optionally cross-checks the prediction against
// the dynamic verifier.
//
// Usage:
//
//	mpidetect -train mbi -check hypre
//	mpidetect -train corrbench -check mbi:MBI_0003 -dynamic
//	mpidetect -train mix -model gnn -check corrbench:ArgError -n 5
//
// Trained detectors can be persisted and reloaded, so the expensive
// training step runs once and the artifact is shared with later runs and
// with the mpidetectd inference server:
//
//	mpidetect -train mbi -save mbi.bin
//	mpidetect -load mbi.bin -check hypre
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
)

var (
	trainOn = flag.String("train", "mbi", "training suite: mbi | corrbench | mix")
	model   = flag.String("model", "ir2vec", "ir2vec | gnn")
	check   = flag.String("check", "hypre", "what to classify: hypre | mbi[:substr] | corrbench[:substr]")
	n       = flag.Int("n", 3, "max codes to classify")
	dynamic = flag.Bool("dynamic", false, "also run the dynamic verifier on each code")
	seed    = flag.Int64("seed", 1, "generation seed")
	save    = flag.String("save", "", "save the trained detector artifact to this path")
	load    = flag.String("load", "", "load a detector artifact instead of training (-train/-model are ignored)")
)

func main() {
	flag.Parse()
	var det core.Detector
	if *load != "" {
		var err error
		det, err = core.LoadDetectorFile(*load)
		if err != nil {
			fatal("loading model: %v", err)
		}
		fmt.Printf("loaded %s from %s\n", det.Name(), *load)
	} else {
		det = trainDetector()
	}
	if *save != "" {
		if err := core.SaveDetectorFile(*save, det); err != nil {
			fatal("saving model: %v", err)
		}
		fmt.Printf("saved %s to %s\n", det.Name(), *save)
	}

	var targets []*dataset.Code
	switch {
	case *check == "hypre":
		buggy, fixed := dataset.HypreCase(*seed)
		targets = []*dataset.Code{fixed, buggy}
	case strings.HasPrefix(*check, "mbi"), strings.HasPrefix(*check, "corrbench"):
		parts := strings.SplitN(*check, ":", 2)
		var d *dataset.Dataset
		if parts[0] == "mbi" {
			d = dataset.GenerateMBI(*seed + 100)
		} else {
			d = dataset.GenerateCorrBench(*seed+100, false)
		}
		for _, c := range d.Codes {
			if len(parts) == 2 && !strings.Contains(c.Name, parts[1]) {
				continue
			}
			targets = append(targets, c)
			if len(targets) >= *n {
				break
			}
		}
	default:
		fatal("unknown -check %q", *check)
	}
	if len(targets) == 0 {
		fatal("nothing matched -check %q", *check)
	}

	for _, c := range targets {
		v, err := core.CheckProgram(det, c.Prog)
		if err != nil {
			fatal("checking %s: %v", c.Name, err)
		}
		verdict := "CORRECT"
		if v.Incorrect {
			verdict = "INCORRECT"
		}
		truth := "correct"
		if c.Incorrect() {
			truth = "incorrect (" + c.Label.String() + ")"
		}
		match := "MATCH"
		if v.Incorrect != c.Incorrect() {
			match = "MISS"
		}
		fmt.Printf("%-34s %s predicts %-9s (truth: %-30s) %s\n",
			c.Name, det.Name(), verdict, truth, match)
		if *dynamic {
			mod := irgen.MustLower(c.Prog)
			res := mpisim.Run(mod, mpisim.Config{Ranks: c.Ranks})
			switch {
			case res.Deadlock:
				fmt.Printf("    dynamic: DEADLOCK\n")
			case res.Timeout:
				fmt.Printf("    dynamic: TIMEOUT\n")
			case len(res.Violations) > 0:
				fmt.Printf("    dynamic: %s\n", res.Violations[0])
			default:
				fmt.Printf("    dynamic: clean run\n")
			}
		}
	}
}

// trainDetector generates the requested suite and fits the chosen model.
func trainDetector() core.Detector {
	var train *dataset.Dataset
	switch *trainOn {
	case "mbi":
		train = dataset.GenerateMBI(*seed)
	case "corrbench":
		train = dataset.GenerateCorrBench(*seed, false)
	case "mix":
		train = dataset.Merge("Mix", dataset.GenerateMBI(*seed), dataset.GenerateCorrBench(*seed, false))
	default:
		fatal("unknown training suite %q", *trainOn)
	}

	fmt.Printf("training %s on %s (%d codes)...\n", *model, train.Name, len(train.Codes))
	var det core.Detector
	var err error
	switch *model {
	case "ir2vec":
		det, err = core.TrainIR2Vec(train, core.DefaultIR2VecConfig())
	case "gnn":
		det, err = core.TrainGNN(train, core.DefaultGNNConfig())
	default:
		fatal("unknown model %q", *model)
	}
	if err != nil {
		fatal("training: %v", err)
	}
	return det
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
