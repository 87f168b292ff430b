// Package telemetry reads the serving stack's live counters. A package
// that owns counters keeps them in the exported struct its Stats method
// reports: each counter is an int64 field of that struct, bumped with
// atomic.AddInt64 and read back through Snapshot, so it is declared
// once. Fold keeps a moving average in such a field.
//
// The 64-bit atomic functions need 8-byte-aligned words, which 32-bit
// targets guarantee only for the first word of an allocated struct. So
// an owner keeps its live counter struct first (or after fields whose
// sizes add up to a multiple of 8), and the struct keeps each int64
// field at an offset that is a multiple of 8 on every target;
// `make test-386` runs the owners as 386 binaries, where a misaligned
// counter panics.
package telemetry

import (
	"reflect"
	"sync/atomic"
)

// Snapshot copies the counter struct at live. Every int64 field, those
// of nested structs included, is read with atomic.LoadInt64; every other
// field is left zero for the caller to fill in (modes, queue depths,
// configured sizes).
func Snapshot[T any](live *T) T {
	var out T
	copyCounters(reflect.ValueOf(&out).Elem(), reflect.ValueOf(live).Elem())
	return out
}

func copyCounters(dst, src reflect.Value) {
	for i := range src.NumField() {
		switch f := src.Field(i); f.Kind() {
		case reflect.Int64:
			v := atomic.LoadInt64((*int64)(f.Addr().UnsafePointer()))
			*(*int64)(dst.Field(i).Addr().UnsafePointer()) = v
		case reflect.Struct:
			copyCounters(dst.Field(i), f)
		}
	}
}

// Fold folds sample into the exponentially weighted moving average kept
// at p, giving it weight alpha; while *p is 0 the sample seeds it.
// Plain load/compute/store: a fold racing another may lose one sample.
func Fold(p *int64, sample int64, alpha float64) {
	if prev := atomic.LoadInt64(p); prev != 0 {
		sample = int64(alpha*float64(sample) + (1-alpha)*float64(prev))
	}
	atomic.StoreInt64(p, sample)
}
