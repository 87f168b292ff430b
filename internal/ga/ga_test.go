package ga

import "testing"

// testConfig scales the GA down so each test runs in milliseconds.
func testConfig(numFeatures int) Config {
	cfg := Default(numFeatures)
	cfg.PopulationSize = 120
	cfg.Generations = 8
	return cfg
}

// knownBestFitness rewards individuals containing low coordinate indices:
// the optimum is {0,1,2,3,4}.
func knownBestFitness(features []int) float64 {
	score := 0.0
	for _, f := range features {
		score += 1.0 / float64(f+1)
	}
	return score
}

func TestFindsGoodSubset(t *testing.T) {
	cfg := testConfig(100)
	cfg.Seed = 7
	res := Run(cfg, knownBestFitness)
	if len(res.Features) != cfg.GenomeSize {
		t.Fatalf("genome size %d, want %d", len(res.Features), cfg.GenomeSize)
	}
	// The optimum subset scores 1 + 1/2 + 1/3 + 1/4 + 1/5 ~= 2.28; a random
	// genome scores far less. Require substantial progress.
	if res.Fitness < 1.5 {
		t.Errorf("best fitness %f too low (features %v)", res.Fitness, res.Features)
	}
}

func TestNoDuplicateCoordinates(t *testing.T) {
	cfg := testConfig(20)
	cfg.Seed = 9
	res := Run(cfg, knownBestFitness)
	seen := map[int]bool{}
	for _, f := range res.Features {
		if seen[f] {
			t.Fatalf("duplicate coordinate %d in %v", f, res.Features)
		}
		if f < 0 || f >= cfg.NumFeatures {
			t.Fatalf("coordinate %d out of range", f)
		}
		seen[f] = true
	}
}

func TestElitismMonotone(t *testing.T) {
	cfg := testConfig(50)
	cfg.Seed = 11
	res := Run(cfg, knownBestFitness)
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1]-1e-12 {
			t.Fatalf("best fitness regressed at generation %d: %v", i, res.History)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := testConfig(60)
	cfg.Seed = 13
	a := Run(cfg, knownBestFitness)
	b := Run(cfg, knownBestFitness)
	if a.Fitness != b.Fitness {
		t.Errorf("same seed produced different fitness: %f vs %f", a.Fitness, b.Fitness)
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatalf("same seed produced different features: %v vs %v", a.Features, b.Features)
		}
	}
}

func TestDefaultMatchesPaper(t *testing.T) {
	cfg := Default(512)
	if cfg.PopulationSize != 2500 || cfg.Generations != 25 ||
		cfg.CrossoverProb != 0.9 || cfg.MutationProb != 0.1 || cfg.GenomeSize != 5 {
		t.Errorf("Default() deviates from the paper's pyeasyga setup: %+v", cfg)
	}
}
