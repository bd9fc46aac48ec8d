// Package par runs independent work units over a bounded pool of
// goroutines. The offline profiler's builds, AdaInf's period-start
// drift probe and the experiment runner's arms share it.
package par

import (
	"sync"
	"sync/atomic"
)

// Units runs fn(w, 0..n-1) over a bounded pool of workers
// w ∈ [0, workers), the calling goroutine being worker 0. Iterations
// must be independent: they may only write state owned by their index
// k or by their worker w. Serial when workers ≤ 1.
func Units(workers, n int, fn func(w, k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(0, k)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			fn(w, k)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}
