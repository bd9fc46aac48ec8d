package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"adainf/internal/audit"
	"adainf/internal/faults"
	"adainf/internal/profile"
	"adainf/internal/serving"
	"adainf/internal/telemetry"
)

// profileSet maps a memory configuration's name to its app profiles.
type profileSet map[string]map[string]*profile.AppProfile

// allocs is a heap-allocation delta read from runtime.MemStats.
type allocs struct{ mallocs, bytes uint64 }

func (a allocs) add(b allocs) allocs { return allocs{a.mallocs + b.mallocs, a.bytes + b.bytes} }

// measured runs fn and returns its wall time and heap allocations.
func measured(fn func() error) (time.Duration, allocs, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, allocs{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}, err
}

// coldBuild builds the profiles of one memory configuration into a
// fresh, empty cache directory, as a clean checkout does. The caller
// removes the returned directory.
func coldBuild(w *workload, mc memConfig, tel *telemetry.Collector) (map[string]*profile.AppProfile, string, error) {
	dir, err := os.MkdirTemp("", "bench-profiles-")
	if err != nil {
		return nil, "", err
	}
	profs, err := serving.BuildProfilesWith(w.apps(), mc.strategy, mc.policy,
		serving.ProfileBuildOptions{CacheDir: dir, Telemetry: tel})
	if cerr := tel.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("profiling %s: %w", mc.name, err)
	}
	return profs, dir, nil
}

// setup builds every memory configuration of the workload cold and
// returns the profiles with the set-up's wall time and allocations.
func setup(w *workload) (profileSet, time.Duration, allocs, error) {
	profs := profileSet{}
	wall, al, err := measured(func() error {
		for _, mc := range w.mems() {
			p, dir, err := coldBuild(w, mc, nil)
			if err != nil {
				return err
			}
			os.RemoveAll(dir)
			profs[mc.name] = p
		}
		return nil
	})
	return profs, wall, al, err
}

// resultDigest hashes every deterministic field of a serving result.
// It leaves out the wall-clock planning times and the fields that are
// filled only when the run is observed (histogram summaries, audit
// check count), so plain, traced and audited runs of one arm agree.
func resultDigest(r *serving.Result) uint64 {
	c := *r
	c.MeasuredPeriodPlanning, c.MeasuredSessionPlanning = 0, 0
	c.PlanningTime, c.InferLatency, c.RetrainLatency, c.QueueDelay = telemetry.Summary{}, telemetry.Summary{}, telemetry.Summary{}, telemetry.Summary{}
	c.AuditChecks = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return h.Sum64()
}

// armRun is one serving.Run of one arm.
type armRun struct {
	res    *serving.Result
	start  time.Time
	wall   time.Duration
	digest uint64
}

// runArm runs one arm. wrap, tel and report are optional observers.
func runArm(w *workload, a *arm, seed int64, profs profileSet, fc *faults.Config,
	wrap bool, tel *telemetry.Collector, report *audit.Report) (armRun, *timedMethod, error) {

	cfg := w.config(a, seed, profs, fc)
	cfg.Method = a.m.build()
	var tm *timedMethod
	if wrap {
		cfg.Method, tm = wrapMethod(cfg.Method)
	}
	cfg.Telemetry = tel
	cfg.AuditReport = report
	start := time.Now()
	res, err := serving.Run(cfg)
	wall := time.Since(start)
	if cerr := tel.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("telemetry: %w", cerr)
	}
	if err == nil && report != nil {
		err = report.Err()
	}
	if err != nil {
		return armRun{}, tm, fmt.Errorf("%s %s: %w", w.name, a.m.label, err)
	}
	return armRun{res: res, start: start, wall: wall, digest: resultDigest(res)}, tm, nil
}

// outcome is what a benchmark run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// digests holds each arm's result digest; every run of an arm must
	// reproduce its first run's.
	digests []uint64
	seen    []bool
	errs    []error
	// rawSetups and rawPasses list each timed step's wall time in
	// seconds before rescaling; setupKernels and kernels list the
	// reference-kernel times the set-ups and the passes were rescaled by.
	rawSetups, rawPasses, setupKernels, kernels []float64
}

func newOutcome(w *workload) *outcome {
	return &outcome{metrics: map[string]float64{}, digests: make([]uint64, len(w.arms)), seen: make([]bool, len(w.arms))}
}

func (o *outcome) fail(err error) {
	o.failed++
	o.errs = append(o.errs, err)
}

// check records one run of arm i, failing it when its result differs
// from the arm's first run.
func (o *outcome) check(w *workload, i int, kind string, r armRun) {
	if !o.seen[i] {
		o.seen[i], o.digests[i] = true, r.digest
		return
	}
	if r.digest != o.digests[i] {
		o.fail(fmt.Errorf("%s %s: %s run's result digest %016x differs from the arm's first run's %016x",
			w.name, w.arms[i].m.label, kind, r.digest, o.digests[i]))
	}
}

// A timed run repeats the cold set-up at least minSetups times, and
// more (up to maxSetups) while the set-ups so far took less than
// setupBudget, so the cheap set-ups get a steadier median.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 2 * time.Second
)

// runTimed is the untraced run whose numbers are the end-to-end
// metrics: repeated cold set-ups, then (with audited) an untimed
// audited pass over every arm, then timed passes until seconds have
// elapsed (at least one). The audited pass is the correctness oracle
// (zero violations), fixes the result every timed pass must reproduce,
// and warms the heap for them. Every set-up and every arm of a timed
// pass runs between two reference-kernel runs and its time is rescaled
// to the nominal host speed and capacity (hostspeed.go).
func runTimed(w *workload, seed int64, seconds float64, audited bool) (*outcome, error) {
	fc, err := w.faultConfig(seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome(w)
	// The profiler runs a worker per CPU; serving runs mostly on one
	// goroutine, so its passes get a one-kernel clock below.
	setupClock := newHostClock(runtime.GOMAXPROCS(0))
	var (
		profs                profileSet
		setups, setupMallocs []float64
		setupBytes           []float64
		setupTotal           time.Duration
	)
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < setupBudget); i++ {
		p, wall, al, err := setup(w)
		if err != nil {
			return nil, err
		}
		profs = p
		setupTotal += wall
		o.rawSetups = append(o.rawSetups, wall.Seconds())
		setups = append(setups, setupClock.scale(wall))
		setupMallocs = append(setupMallocs, float64(al.mallocs))
		setupBytes = append(setupBytes, float64(al.bytes))
	}

	for i := 0; audited && i < len(w.arms); i++ {
		o.attempted++
		r, _, err := runArm(w, &w.arms[i], seed, profs, fc, false, nil, &audit.Report{})
		if err != nil {
			o.fail(err)
			continue
		}
		o.check(w, i, "audited", r)
	}
	clock := newHostClock(1)

	// armWalls holds each arm's rescaled time in every pass. wall_s sums
	// the arms' medians: the host slows for bursts shorter than a pass, so
	// a per-arm median rejects a slow burst that a per-pass one would keep.
	armWalls := make([][]float64, len(w.arms))
	var mallocs, bytes []float64
	var requests, accW, finW float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var passWall time.Duration
		requests, accW, finW = 0, 0, 0
		_, al, _ := measured(func() error {
			for i := range w.arms {
				o.attempted++
				r, _, err := runArm(w, &w.arms[i], seed, profs, fc, false, nil, nil)
				if err != nil {
					o.fail(err)
					continue
				}
				o.check(w, i, "timed", r)
				passWall += r.wall
				armWalls[i] = append(armWalls[i], clock.scale(r.wall))
				n := float64(r.res.Requests)
				requests += n
				accW += r.res.MeanAccuracy * n
				finW += r.res.MeanFinishRate * n
			}
			return nil
		})
		o.rawPasses = append(o.rawPasses, passWall.Seconds())
		mallocs = append(mallocs, float64(al.mallocs))
		bytes = append(bytes, float64(al.bytes))
	}
	o.setupKernels, o.kernels = setupClock.kernels, clock.kernels

	var wall float64
	for _, ws := range armWalls {
		wall += medianOf(ws)
	}
	m := o.metrics
	m["setup_s"] = medianOf(setups)
	m["wall_s"] = wall
	m["sim_req_per_s"] = ratio(requests, wall)
	m["allocs_m"] = (medianOf(setupMallocs) + medianOf(mallocs)) / 1e6
	m["alloc_mb"] = (medianOf(setupBytes) + medianOf(bytes)) / 1e6
	m["peak_rss_mb"] = peakRSSMB()
	m["sim_accuracy"] = ratio(accW, requests)
	m["sim_finish_rate"] = ratio(finW, requests)
	return o, nil
}

// peakRSSMB is this process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
