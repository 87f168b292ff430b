package passes_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"flag"
	"os"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// updateOptimizedGolden regenerates testdata/optimized_v1.gob from the
// current pipeline. The committed artifact was produced by the
// map-based analyses, before the dense-indexed rewrite; regenerate only
// for a deliberate, reviewed change to what the optimiser prints.
var updateOptimizedGolden = flag.Bool("update-optimized-golden", false,
	"regenerate testdata/optimized_v1.gob with the current passes")

const optimizedGoldenPath = "testdata/optimized_v1.gob"

// optimizedGoldenSeeds are MBI and CorrBench generator seeds no other
// test draws from.
var optimizedGoldenSeeds = []int64{5001, 5002}

// optimizedRecord is one program's golden entry, in corpus order: the
// SHA-256 of ir.Print of its module after -O2 and after -Os. Program
// names are not stored; they come from the regenerated corpus.
type optimizedRecord struct {
	O2, Os []byte
}

func sum(text string) []byte {
	h := sha256.Sum256([]byte(text))
	return h[:]
}

func computeOptimizedGolden(t *testing.T) (names []string, out []optimizedRecord) {
	t.Helper()
	for _, seed := range optimizedGoldenSeeds {
		d := dataset.Merge("golden", dataset.GenerateMBI(seed), dataset.GenerateCorrBench(seed, false))
		for _, c := range d.Codes {
			m2, err := irgen.Lower(c.Prog)
			if err != nil {
				t.Fatalf("%s: lowering: %v", c.Name, err)
			}
			ms := irgen.MustLower(c.Prog)
			passes.Optimize(m2, passes.O2)
			passes.Optimize(ms, passes.Os)
			names = append(names, c.Suite.String()+"/"+c.Name)
			out = append(out, optimizedRecord{O2: sum(ir.Print(m2)), Os: sum(ir.Print(ms))})
		}
	}
	return names, out
}

// TestOptimizedGolden pins the printed IR of every golden program at -O2
// and -Os to the committed hashes, byte for byte. Verdict goldens only
// catch optimiser changes that move a feature; this catches any change
// to a golden program's optimised module.
func TestOptimizedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus is slow; skipped under -short")
	}
	names, got := computeOptimizedGolden(t)
	if *updateOptimizedGolden {
		f, err := os.Create(optimizedGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d programs to %s", len(got), optimizedGoldenPath)
		return
	}
	f, err := os.Open(optimizedGoldenPath)
	if err != nil {
		t.Fatalf("opening golden artifact (regenerate with -update-optimized-golden): %v", err)
	}
	defer f.Close()
	var want []optimizedRecord
	if err := gob.NewDecoder(f).Decode(&want); err != nil {
		t.Fatalf("decoding %s: %v", optimizedGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d programs, golden has %d", len(got), len(want))
	}
	mismatches := 0
	for i, w := range want {
		g := got[i]
		for _, lvl := range []struct {
			name      string
			got, want []byte
		}{{"-O2", g.O2, w.O2}, {"-Os", g.Os, w.Os}} {
			if bytes.Equal(lvl.got, lvl.want) {
				continue
			}
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%s at %s: optimised IR differs from the golden", names[i], lvl.name)
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("... and %d more mismatches", mismatches-5)
	}
}
