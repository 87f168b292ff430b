package store

import (
	"fmt"
	"testing"
)

// benchPayload stands in for a tier payload: a classify verdict's is
// the format byte and about 100 bytes of JSON, so 256 bytes is generous.
var benchPayload = make([]byte, 256)

// benchVerdict has the shape and JSON tags of the serving layer's
// classify verdict, the value the tier benchmarks encode and decode.
type benchVerdict struct {
	Name       string  `json:"name,omitempty"`
	Incorrect  bool    `json:"incorrect"`
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
	Err        string  `json:"error,omitempty"`
}

// benchTierKeys is the working set of the tier benchmarks; keys have the
// serving layer's model, generation and 64-hex digest shape.
const benchTierKeys = 1024

func benchTierKeyList() []string {
	keys := make([]string, benchTierKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("ir2vec\x1f1\x1f%064x", i)
	}
	return keys
}

var benchTierValue = benchVerdict{Incorrect: true, Label: "Invalid Parameter", Confidence: 0.8125}

// BenchmarkTierPersist is the writer goroutine's work per record: encode
// the verdict and append it to the store.
func BenchmarkTierPersist(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := NewTier[benchVerdict](s, "classify", TierOptions{})
	defer tr.Close()
	keys := benchTierKeyList()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.persist(tierOp[benchVerdict]{key: keys[i%benchTierKeys], val: benchTierValue, put: true})
	}
	b.StopTimer()
	if st := tr.Stats(); st.Persisted != int64(b.N) {
		b.Fatalf("persisted %d of %d", st.Persisted, b.N)
	}
}

// BenchmarkTierLoad is a store hydration: read one record and decode the
// verdict.
func BenchmarkTierLoad(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := NewTier[benchVerdict](s, "classify", TierOptions{})
	defer tr.Close()
	keys := benchTierKeyList()
	for _, k := range keys {
		tr.Store(k, benchTierValue)
	}
	tr.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, ok, err := tr.Load(keys[i%benchTierKeys]); !ok || err != nil || v != benchTierValue {
			b.Fatalf("Load = %+v, %v, %v", v, ok, err)
		}
	}
}

func BenchmarkStoreAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("bench-key-%d", i), 1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreHydrate(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const keys = 1024
	for i := 0; i < keys; i++ {
		if err := s.Put(fmt.Sprintf("bench-key-%d", i), 1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.Get(fmt.Sprintf("bench-key-%d", i%keys)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkBootWarmStart(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const records = 4096
	for i := 0; i < records; i++ {
		if err := s.Put(fmt.Sprintf("bench-key-%d", i), 1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != records {
			b.Fatalf("warm boot recovered %d records", r.Len())
		}
		r.Close()
	}
	b.ReportMetric(records, "records/boot")
}
