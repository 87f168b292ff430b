package main

import (
	"fmt"
	"os"
	"path/filepath"

	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// trainSeed generates the training corpus. Workload programs come from
// sub-seeds seed*subSeeds+k+1 (see subSeed), which are never 0, so no
// workload ever draws from the training corpus's generator stream.
const (
	trainSeed = 0
	subSeeds  = 1000
	maxSeed   = 1 << 40
)

// artifactDir names the cached artifact set; bump it when the training
// recipe below changes so stale artifacts are never reused.
const artifactDir = "artifacts-v1"

func subSeed(seed int64, k int) int64 { return seed*subSeeds + int64(k) + 1 }

// program is one generated input in the serving wire format.
type program struct {
	name      string
	ir        string
	incorrect bool // ground truth
}

// genPrograms returns n programs of the MBI and CorrBench generators,
// lowered to unoptimised textual IR and deduplicated by normalized-IR
// digest (the identity the verdict cache keys on), so no two of them
// can share a cache entry. The result depends only on seed and n.
func genPrograms(seed int64, n int) ([]program, error) {
	seen := map[string]bool{}
	out := make([]program, 0, n)
	for k := 0; len(out) < n; k++ {
		if k == subSeeds {
			return nil, fmt.Errorf("only %d distinct programs from seed %d", len(out), seed)
		}
		s := subSeed(seed, k)
		d := dataset.Merge("workload", dataset.GenerateMBI(s), dataset.GenerateCorrBench(s, false))
		for _, c := range d.Shuffled(s) {
			m, err := irgen.Lower(c.Prog)
			if err != nil {
				return nil, fmt.Errorf("lowering %s: %w", c.Name, err)
			}
			src := ir.Print(m)
			key := core.DigestIRKeyed("perfbench", src)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, program{name: c.Name, ir: src, incorrect: c.Incorrect()})
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

func irBytes(progs []program) int {
	n := 0
	for _, p := range progs {
		n += len(p.ir)
	}
	return n
}

// artifacts are the trained detectors, saved in the daemon's artifact
// format, plus a standalone IR2Vec encoder built with the IR2Vec
// detector's configuration (the detector keeps its own encoder private;
// the traced run times Encoder.EncodeBatch on this one).
type artifacts struct {
	ir2vecPath, gnnPath, encoderPath string
}

// ensureArtifacts trains the detectors on the training seed's MBI and
// CorrBench corpus the first time it runs in dir, and reuses the saved
// files afterwards. Training is preparation: nothing here is timed.
func ensureArtifacts(dir string) (artifacts, error) {
	ad := filepath.Join(dir, artifactDir)
	a := artifacts{
		ir2vecPath:  filepath.Join(ad, "ir2vec.model"),
		gnnPath:     filepath.Join(ad, "gnn.model"),
		encoderPath: filepath.Join(ad, "encoder.gob"),
	}
	if fileExists(a.ir2vecPath) && fileExists(a.gnnPath) && fileExists(a.encoderPath) {
		return a, nil
	}
	if err := os.MkdirAll(ad, 0o755); err != nil {
		return a, err
	}
	corpus := dataset.Merge("train", dataset.GenerateMBI(trainSeed), dataset.GenerateCorrBench(trainSeed, false))
	cfg := core.DefaultIR2VecConfig()
	det, err := core.TrainIR2Vec(corpus, cfg)
	if err != nil {
		return a, err
	}
	if err := saveAtomic(a.ir2vecPath, func(p string) error { return core.SaveDetectorFile(p, det) }); err != nil {
		return a, err
	}
	enc, err := trainEncoder(corpus, cfg)
	if err != nil {
		return a, err
	}
	if err := saveAtomic(a.encoderPath, func(p string) error {
		b, err := enc.GobEncode()
		if err != nil {
			return err
		}
		return os.WriteFile(p, b, 0o644)
	}); err != nil {
		return a, err
	}
	gnnDet, err := core.TrainGNN(corpus, core.DefaultGNNConfig())
	if err != nil {
		return a, err
	}
	return a, saveAtomic(a.gnnPath, func(p string) error { return core.SaveDetectorFile(p, gnnDet) })
}

// trainEncoder repeats the encoder half of core.TrainIR2Vec.
func trainEncoder(corpus *dataset.Dataset, cfg core.IR2VecConfig) (*ir2vec.Encoder, error) {
	mods := make([]*ir.Module, 0, len(corpus.Codes))
	for _, c := range corpus.Codes {
		m, err := irgen.Lower(c.Prog)
		if err != nil {
			return nil, err
		}
		passes.Optimize(m, cfg.Opt)
		mods = append(mods, m)
	}
	sample := mods
	if len(sample) > 200 {
		sample = sample[:200]
	}
	enc := ir2vec.Train(sample, cfg.Dim, cfg.Seed, 30)
	enc.FitVocab(mods)
	return enc, nil
}

func loadEncoder(path string) (*ir2vec.Encoder, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	enc := new(ir2vec.Encoder)
	return enc, enc.GobDecode(b)
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// saveAtomic writes through a temporary file and renames it into place,
// so an interrupted first run never leaves a truncated artifact behind.
func saveAtomic(path string, write func(string) error) error {
	tmp := path + ".tmp"
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
