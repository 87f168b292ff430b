// Package dataset synthesises the two MPI correctness benchmark suites the
// paper evaluates on — the MPI Bugs Initiative (MBI) and MPI-CorrBench —
// as labelled corpora of MPI-C programs. The real suites are C source
// trees; since the models only ever see compiled IR, the reproduction
// generates programs whose error classes induce the same IR-level
// signatures (mismatched collectives under rank-dependent control flow,
// missing waits, invalid argument expressions, wildcard races, ...), with
// per-class counts and code-size distributions matched to Fig. 1/2/3 and
// Table III of the paper.
package dataset

import (
	"fmt"
	"math/rand"
	"sync"

	"mpidetect/internal/ast"
)

// Label is the error class of a code ("Correct" for error-free codes).
type Label int

// The labels of both suites. MBI uses the nine error classes of the MPI
// Bugs Initiative; MPI-CorrBench uses its own four-way taxonomy.
const (
	Correct Label = iota
	// MBI error classes
	InvalidParameter
	ParameterMatching
	CallOrdering
	LocalConcurrency
	RequestLifecycle
	EpochLifecycle
	MessageRace
	GlobalConcurrency
	ResourceLeak
	// MPI-CorrBench error classes
	ArgError
	ArgMismatch
	MissplacedCall
	MissingCall
	numLabels
)

var labelNames = map[Label]string{
	Correct:           "Correct",
	InvalidParameter:  "Invalid Parameter",
	ParameterMatching: "Parameter Matching",
	CallOrdering:      "Call Ordering",
	LocalConcurrency:  "Local Concurrency",
	RequestLifecycle:  "Request Lifecycle",
	EpochLifecycle:    "Epoch Lifecycle",
	MessageRace:       "Message Race",
	GlobalConcurrency: "Global Concurrency",
	ResourceLeak:      "Resource Leak",
	ArgError:          "ArgError",
	ArgMismatch:       "ArgMismatch",
	MissplacedCall:    "MissplacedCall",
	MissingCall:       "MissingCall",
}

// String returns the display name used in the paper's figures.
func (l Label) String() string {
	if s, ok := labelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Label(%d)", int(l))
}

// AllLabels returns every label in declaration order.
func AllLabels() []Label {
	out := make([]Label, 0, int(numLabels))
	for l := Label(0); l < numLabels; l++ {
		out = append(out, l)
	}
	return out
}

// MBILabels returns the error labels of the MBI suite.
func MBILabels() []Label {
	return []Label{InvalidParameter, ParameterMatching, CallOrdering,
		LocalConcurrency, RequestLifecycle, EpochLifecycle, MessageRace,
		GlobalConcurrency, ResourceLeak}
}

// CorrBenchLabels returns the error labels of the MPI-CorrBench suite.
func CorrBenchLabels() []Label {
	return []Label{ArgError, ArgMismatch, MissplacedCall, MissingCall}
}

// Suite identifies the benchmark suite of a code.
type Suite int

// The two suites.
const (
	SuiteMBI Suite = iota
	SuiteCorrBench
)

// String returns the suite name.
func (s Suite) String() string {
	if s == SuiteMBI {
		return "MBI"
	}
	return "MPI-CorrBench"
}

// Code is one labelled benchmark program.
type Code struct {
	Name   string
	Suite  Suite
	Label  Label
	Prog   *ast.Program
	Header map[string]string // MBI-style metadata header
	Ranks  int               // processes the code is meant to run with

	memoOnce [numMemoSlots]sync.Once
	memo     [numMemoSlots]any
}

// Memo slots for consumer-computed per-code artifacts.
const (
	// MemoModule caches the code's lowered IR module (verify package).
	MemoModule = iota
	// MemoProgram caches the compiled simulator program (verify package).
	MemoProgram
	numMemoSlots
)

// Memo lazily computes and caches a per-code artifact under one of the
// slots above. Evaluating a corpus with several verification tools
// lowers and compiles each program exactly once this way — the
// artifact's lifetime is the code's, so no global cache can grow stale
// or unbounded. compute runs at most once per slot; concurrent callers
// block until it finishes (the evaluation harness fans codes out across
// goroutines).
func (c *Code) Memo(slot int, compute func() any) any {
	c.memoOnce[slot].Do(func() { c.memo[slot] = compute() })
	return c.memo[slot]
}

// Incorrect reports whether the code carries an error label.
func (c *Code) Incorrect() bool { return c.Label != Correct }

// LineCount returns the pre-processed line count of the code, expanding the
// suite's known headers (this reproduces the mpitest.h bias of
// MPI-CorrBench correct codes; see Fig. 2 and §III).
func (c *Code) LineCount(stripBias bool) int {
	sizes := map[string]int{"mpi.h": 1, "stdio.h": 1, "stdlib.h": 1}
	if !stripBias {
		sizes["mpitest.h"] = corrBenchHeaderLines
	}
	return ast.LineCount(c.Prog, sizes)
}

// corrBenchHeaderLines is the size of the simulated mpitest.h header that
// MPI-CorrBench correct codes include.
const corrBenchHeaderLines = 104

// Dataset is a labelled corpus of codes.
type Dataset struct {
	Name  string
	Codes []*Code
}

// CountByLabel tallies codes per label.
func (d *Dataset) CountByLabel() map[Label]int {
	out := map[Label]int{}
	for _, c := range d.Codes {
		out[c.Label]++
	}
	return out
}

// CountCorrect returns (#correct, #incorrect).
func (d *Dataset) CountCorrect() (correct, incorrect int) {
	for _, c := range d.Codes {
		if c.Incorrect() {
			incorrect++
		} else {
			correct++
		}
	}
	return
}

// Merge concatenates datasets (the paper's "Mix" scenario).
func Merge(name string, ds ...*Dataset) *Dataset {
	out := &Dataset{Name: name}
	for _, d := range ds {
		out.Codes = append(out.Codes, d.Codes...)
	}
	return out
}

// Shuffled returns a copy of the codes in deterministic shuffled order.
func (d *Dataset) Shuffled(seed int64) []*Code {
	out := append([]*Code(nil), d.Codes...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
