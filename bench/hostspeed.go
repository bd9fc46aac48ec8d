package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores: identical passes
// differ by ±15% within a minute and by up to a third between minutes,
// and for minutes at a time two busy threads run no faster than one. A
// fixed reference kernel timed next to every timed step measures that
// drift, and the reported times are rescaled to the speed at which the
// kernel takes refNominal. The kernel uses only the standard library
// and allocates nothing after its first run, so no change to the
// repository's code or heap can move it.
const refNominal = 100 * time.Millisecond

// refKernel is map-, sort- and floating-point-heavy work of a fixed
// size, like the simulator's hot paths.
type refKernel struct {
	m    map[uint64]uint64
	xs   []uint64
	sink float64
}

func newRefKernel() *refKernel {
	k := &refKernel{m: make(map[uint64]uint64, 1<<15), xs: make([]uint64, 1<<16)}
	k.run() // the first run sizes the map
	return k
}

func (k *refKernel) run() {
	x := uint64(0x9e3779b97f4a7c15)
	for round := 0; round < 12; round++ {
		clear(k.m)
		for i := range k.xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.m[x&(1<<15-1)] += x
			k.xs[i] = x
		}
		slices.Sort(k.xs)
		for i := 0; i < 1<<15; i++ {
			k.sink += math.Pow(float64(k.xs[i]>>40)+1, 0.37)
		}
	}
}

// hostClock times steps between reference-kernel runs and rescales each
// step by the kernel times on either side of it. A clock for steps that
// a worker pool runs (profiling) runs one kernel per CPU at once, so it
// measures the host's parallel capacity as well as its speed; a clock
// for mostly serial steps (serving) runs one.
type hostClock struct {
	ks   []*refKernel
	last time.Duration
	// kernels lists every kernel time, for the report.
	kernels []float64
}

func newHostClock(threads int) *hostClock {
	c := &hostClock{kernels: make([]float64, 0, 256)}
	for i := 0; i < threads; i++ {
		c.ks = append(c.ks, newRefKernel())
	}
	c.last = c.tick()
	return c
}

// tick runs the kernels once, after a full GC so no collection overlaps
// them, and returns their wall time.
func (c *hostClock) tick() time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for _, k := range c.ks[1:] {
		wg.Add(1)
		go func(k *refKernel) {
			defer wg.Done()
			k.run()
		}(k)
	}
	c.ks[0].run()
	wg.Wait()
	d := time.Since(start)
	c.kernels = append(c.kernels, d.Seconds())
	return d
}

// scale times the reference kernels after a step that took wall and
// returns wall rescaled to the nominal host speed: the host's speed
// during the step is taken as the mean of the kernel runs before and
// after it.
func (c *hostClock) scale(wall time.Duration) float64 {
	next := c.tick()
	host := (c.last + next) / 2
	c.last = next
	return wall.Seconds() * float64(refNominal) / float64(host)
}
