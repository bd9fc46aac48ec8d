package par

import (
	"sync/atomic"
	"testing"
)

// TestUnitsRunsEachUnitOnce checks every unit runs exactly once, on a
// worker index below the pool size, serially and on pools larger and
// smaller than the unit count.
func TestUnitsRunsEachUnitOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		for _, n := range []int{0, 1, 17} {
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			Units(workers, n, func(w, k int) {
				if w < 0 || w >= max(workers, 1) {
					badWorker.Store(true)
				}
				runs[k].Add(1)
			})
			for k := range runs {
				if got := runs[k].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: unit %d ran %d times", workers, n, k, got)
				}
			}
			if badWorker.Load() {
				t.Fatalf("workers %d, n %d: a worker index out of range", workers, n)
			}
		}
	}
}
