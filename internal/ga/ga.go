// Package ga implements the genetic-algorithm feature selection of §IV-A:
// each individual is a subset of feature coordinates; fitness is the
// validation accuracy of a decision tree trained on that subset. The
// hyper-parameters follow the paper's pyeasyga setup — population 2500,
// 25 generations, 90% crossover, 10% mutation, 5 coordinates per
// individual.
package ga

import (
	"math/rand"
	"sort"

	"mpidetect/internal/par"
)

// Config holds the GA hyper-parameters; Default matches the paper.
type Config struct {
	PopulationSize int
	Generations    int
	CrossoverProb  float64
	MutationProb   float64
	GenomeSize     int // coordinates per individual
	NumFeatures    int // total feature dimensionality
	Seed           int64
	Elitism        bool
}

// Default returns the paper's configuration for the given feature count.
func Default(numFeatures int) Config {
	return Config{
		PopulationSize: 2500,
		Generations:    25,
		CrossoverProb:  0.9,
		MutationProb:   0.1,
		GenomeSize:     5,
		NumFeatures:    numFeatures,
		Seed:           1,
		Elitism:        true,
	}
}

// Fitness scores an individual (a set of feature coordinates); larger is
// better.
type Fitness func(features []int) float64

type individual struct {
	genes []int
	fit   float64
}

// Result is the best individual found.
type Result struct {
	Features []int
	Fitness  float64
	History  []float64 // best fitness per generation
}

// Run executes the genetic search.
func Run(cfg Config, fitness Fitness) *Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := make([]*individual, cfg.PopulationSize)
	for i := range pop {
		pop[i] = &individual{genes: randomGenome(rng, cfg)}
	}
	evaluate(pop, fitness)
	sortPop(pop)
	res := &Result{}
	for gen := 0; gen < cfg.Generations; gen++ {
		next := make([]*individual, 0, cfg.PopulationSize)
		if cfg.Elitism {
			next = append(next, pop[0])
		}
		for len(next) < cfg.PopulationSize {
			a := tournament(rng, pop)
			b := tournament(rng, pop)
			ca, cb := a.genes, b.genes
			if rng.Float64() < cfg.CrossoverProb {
				ca, cb = crossover(rng, a.genes, b.genes, cfg)
			}
			for _, genes := range [][]int{ca, cb} {
				g := append([]int(nil), genes...)
				if rng.Float64() < cfg.MutationProb {
					mutate(rng, g, cfg)
				}
				next = append(next, &individual{genes: g})
				if len(next) >= cfg.PopulationSize {
					break
				}
			}
		}
		pop = next
		evaluate(pop, fitness)
		sortPop(pop)
		res.History = append(res.History, pop[0].fit)
	}
	res.Features = append([]int(nil), pop[0].genes...)
	sort.Ints(res.Features)
	res.Fitness = pop[0].fit
	return res
}

func randomGenome(rng *rand.Rand, cfg Config) []int {
	seen := map[int]bool{}
	genes := make([]int, 0, cfg.GenomeSize)
	for len(genes) < cfg.GenomeSize {
		f := rng.Intn(cfg.NumFeatures)
		if !seen[f] {
			seen[f] = true
			genes = append(genes, f)
		}
	}
	return genes
}

// evaluate scores every individual not yet scored, across cores. Each
// score depends only on its own genes, so the order does not matter.
func evaluate(pop []*individual, fitness Fitness) {
	par.Map(len(pop), func(i int) {
		if pop[i].fit == 0 {
			pop[i].fit = fitness(pop[i].genes)
		}
	})
}

func sortPop(pop []*individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].fit > pop[j].fit })
}

// tournament selects the better of two random individuals.
func tournament(rng *rand.Rand, pop []*individual) *individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.fit >= b.fit {
		return a
	}
	return b
}

// crossover performs single-point crossover, repairing duplicates with
// fresh random coordinates.
func crossover(rng *rand.Rand, a, b []int, cfg Config) ([]int, []int) {
	cut := 1 + rng.Intn(cfg.GenomeSize-1)
	ca := append(append([]int(nil), a[:cut]...), b[cut:]...)
	cb := append(append([]int(nil), b[:cut]...), a[cut:]...)
	repair(rng, ca, cfg)
	repair(rng, cb, cfg)
	return ca, cb
}

// mutate replaces one random coordinate.
func mutate(rng *rand.Rand, genes []int, cfg Config) {
	genes[rng.Intn(len(genes))] = rng.Intn(cfg.NumFeatures)
	repair(rng, genes, cfg)
}

// repair removes duplicate coordinates in place.
func repair(rng *rand.Rand, genes []int, cfg Config) {
	seen := map[int]bool{}
	for i, g := range genes {
		for seen[g] {
			g = rng.Intn(cfg.NumFeatures)
		}
		seen[g] = true
		genes[i] = g
	}
}
