// Package par holds the repo's one shared worker-pool primitive. Every
// numeric, training and evaluation fan-out (feature extraction,
// cross-validation folds, GA fitness, GNN training workers, static-tool
// evaluation, error localisation) uses this strided loop instead of
// re-rolling goroutine scaffolding. The tensor kernels below it are
// serial; only the serving tiers' own pools run above it.
package par

import (
	"runtime"
	"sync"
)

// Map runs fn(i) for every i in [0, n) across GOMAXPROCS workers,
// striding the index space. fn must be safe to call concurrently for
// distinct indices; writes to distinct slice elements are fine. Map
// returns once every call has finished.
func Map(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
