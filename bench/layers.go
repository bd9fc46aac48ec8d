package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adainf/internal/audit"
	"adainf/internal/serving"
	"adainf/internal/telemetry"
)

// runLayered is the traced run that yields the per-layer metrics. Per
// memory configuration it builds the profiles cold under a tracing
// collector, which forces the profiler serial (so these cold times are
// serial ones, unlike setup_s), and then loads them warm from the
// filled cache. Per arm it runs a plain
// pass (the base for overhead ratios and the runtime metrics), a traced
// pass with every method wrapped in a timing recorder, and an audited
// pass; all three must give the same result. The span tree goes to
// spansPath as Chrome trace JSON.
func runLayered(w *workload, seed int64, spansPath string) (*outcome, error) {
	fc, err := w.faultConfig(seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome(w)
	m := o.metrics
	root := &span{name: "workload " + w.name, start: time.Now()}

	// Profiling layer.
	setupSpan := root.child("setup", time.Now(), time.Time{})
	profs := profileSet{}
	var unitNs []int64
	var profAlloc allocs
	for _, mc := range allMems {
		m["profile.cold_s."+mc.name] = 0
		m["gpumem.evictions."+mc.name] = 0
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	for _, mc := range w.mems() {
		sink := newEventSink()
		tel := telemetry.New(telemetry.Options{Trace: sink})
		var dir string
		start := time.Now()
		wall, al, err := measured(func() (err error) {
			profs[mc.name], dir, err = coldBuild(w, mc, tel)
			return err
		})
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		profAlloc = profAlloc.add(al)
		m["profile.cold_s."+mc.name] = wall.Seconds()
		m["gpumem.evictions."+mc.name] = float64(sink.byType[telemetry.EvEvict])
		build := setupSpan.child("profile_build("+mc.name+")", start, start.Add(wall))
		// Unit events carry durations only; a traced build runs its
		// units back to back, so their spans are laid out in order.
		at, u := start, 0
		for _, b := range sink.builds {
			appSpan := build.child("profile_app", at, at.Add(b.wall))
			appSpan.args = map[string]any{"app": b.app}
			ut := at
			for ; u < len(sink.units) && sink.units[u].app == b.app; u++ {
				ev := sink.units[u]
				us := appSpan.child("profile_unit", ut, ut.Add(ev.wall))
				us.args = map[string]any{"node": ev.node, "unit": ev.unit}
				ut = ut.Add(ev.wall)
				unitNs = append(unitNs, int64(ev.wall))
			}
			at = at.Add(b.wall)
		}
	}
	var warm time.Duration
	for i, mc := range w.mems() {
		start := time.Now()
		if _, err := serving.BuildProfilesWith(w.apps(), mc.strategy, mc.policy,
			serving.ProfileBuildOptions{CacheDir: dirs[i]}); err != nil {
			return nil, fmt.Errorf("warm load %s: %w", mc.name, err)
		}
		warm += time.Since(start)
		setupSpan.child("warm_load("+mc.name+")", start, time.Now())
	}
	setupSpan.end = time.Now()
	sorted := sortedNs(unitNs)
	m["profile.alloc_mb"] = float64(profAlloc.bytes) / 1e6
	m["profile.warm_load_s"] = warm.Seconds()
	m["profile.units"] = float64(len(unitNs))
	m["profile.unit_ms_p50"] = float64(percentile(sorted, 50)) / 1e6
	m["profile.unit_ms_p99"] = float64(percentile(sorted, 99)) / 1e6

	// Serving, planner, fault and runtime layers.
	var (
		plainWall, tracedWall, auditWall time.Duration
		servingAlloc                     allocs
		gcBefore, gcAfter                runtime.MemStats
		heapPeak                         uint64
		fam                              = map[string]*familyTimes{"core": {}, "baselines": {}}
		ffHits, ffMisses                 uint64
		memoHits, memoMisses             uint64
		events, auditChecks              int
		requests, jobs, sessions         float64
		shed                             float64
	)
	// Counters summed over arms, present even when every arm fails.
	for _, k := range []string{"runtime.gc_cycles", "runtime.gc_pause_ms", "cluster.replacements",
		"faults.gpu_crashes", "faults.gpu_recoveries", "faults.degraded_jobs", "faults.drift_spikes",
		"faults.bursts", "admit.suspended_periods"} {
		m[k] = 0
	}
	for i := range w.arms {
		a := &w.arms[i]
		armSpan := root.child("arm "+a.m.label, time.Now(), time.Time{})
		fail := func(err error) { o.fail(err); armSpan.end = time.Now() }

		o.attempted++
		runtime.GC()
		runtime.ReadMemStats(&gcBefore)
		hs := startHeapSampler()
		var plain armRun
		_, al, err := measured(func() (err error) {
			plain, _, err = runArm(w, a, seed, profs, fc, false, nil, nil)
			return err
		})
		if p := hs.Stop(); p > heapPeak {
			heapPeak = p
		}
		runtime.ReadMemStats(&gcAfter)
		if err != nil {
			fail(err)
			continue
		}
		m["runtime.gc_cycles"] += float64(gcAfter.NumGC - gcBefore.NumGC)
		m["runtime.gc_pause_ms"] += float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
		servingAlloc = servingAlloc.add(al)
		plainWall += plain.wall
		o.check(w, i, "plain", plain)
		armSpan.child("serving.Run(plain)", plain.start, plain.start.Add(plain.wall))
		res := plain.res
		n := float64(res.Requests)
		requests += n
		jobs += float64(res.Jobs)
		sessions += float64(w.sessions())
		shed += float64(res.FaultShedRequests)
		m["cluster.replacements"] += float64(res.FaultReplacements)
		m["faults.gpu_crashes"] += float64(res.FaultGPUCrashes)
		m["faults.gpu_recoveries"] += float64(res.FaultGPURecoveries)
		m["faults.degraded_jobs"] += float64(res.FaultDegradedJobs)
		m["faults.drift_spikes"] += float64(res.FaultDriftSpikes)
		m["faults.bursts"] += float64(res.FaultBursts)
		m["admit.suspended_periods"] += float64(res.FaultSuspendedRetrainPeriods)
		if a.m.family == "core" {
			memoHits += res.PlanMemoHits
			memoMisses += res.PlanMemoMisses
		}

		o.attempted++
		runtime.GC()
		sink := newEventSink()
		tel := telemetry.New(telemetry.Options{Trace: sink, Hist: true})
		traced, tm, err := runArm(w, a, seed, profs, fc, true, tel, nil)
		if err != nil {
			fail(err)
			continue
		}
		runSpan := armSpan.child("serving.Run(traced)", traced.start, traced.start.Add(traced.wall))
		for pi, ps := range tm.periods {
			s := runSpan.child(ps.name, ps.start, ps.end)
			s.args = map[string]any{"period": pi,
				"session_plans":   tm.sessionsIn[pi].n,
				"session_plan_ms": float64(tm.sessionsIn[pi].total) / 1e6}
		}
		runSpan.args = map[string]any{"session_plan_ms": float64(tm.sessionPlanTime()) / 1e6}
		tracedWall += traced.wall
		fam[a.m.family].add(tm)
		h, ms := tel.FFCounts()
		ffHits += h
		ffMisses += ms
		events += sink.events
		o.check(w, i, "traced", traced)

		o.attempted++
		runtime.GC()
		audited, _, err := runArm(w, a, seed, profs, fc, false, nil, &audit.Report{})
		if err != nil {
			fail(err)
			continue
		}
		armSpan.child("serving.Run(audited)", audited.start, audited.start.Add(audited.wall))
		auditWall += audited.wall
		auditChecks += audited.res.AuditChecks
		o.check(w, i, "audited", audited)
		armSpan.end = time.Now()
	}
	root.end = time.Now()

	run := tracedWall.Seconds()
	planner := 0.0
	for name, f := range fam {
		f.metrics(m, name, run)
		planner += f.period.Seconds() + f.session.Seconds()
	}
	m["serving.run_s"] = run
	m["serving.self_s"] = run - planner
	m["serving.sessions"] = sessions
	m["serving.jobs"] = jobs
	m["serving.ns_per_request"] = ratio((run-planner)*1e9, requests)
	m["serving.alloc_mb"] = float64(servingAlloc.bytes) / 1e6
	m["serving.ff_hit_ratio"] = ratio(float64(ffHits), float64(ffHits+ffMisses))
	m["core.plan_memo_hit_ratio"] = ratio(float64(memoHits), float64(memoHits+memoMisses))
	m["admit.shed_frac"] = ratio(shed, requests)
	m["runtime.heap_peak_mb"] = float64(heapPeak) / 1e6
	m["telemetry.trace_overhead_frac"] = ratio(tracedWall.Seconds(), plainWall.Seconds()) - 1
	m["telemetry.trace_events"] = float64(events)
	m["audit.checks"] = float64(auditChecks)
	m["audit.overhead_frac"] = ratio(auditWall.Seconds(), plainWall.Seconds()) - 1

	if spansPath != "" {
		if err := writeChrome(spansPath, root); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return o, nil
}

// familyTimes accumulates the wrapped planner timings of one method
// family: "core" (AdaInf and its variants) or "baselines".
type familyTimes struct {
	periodNs        []int64
	sessionNs       []int64
	period, session time.Duration
}

func (f *familyTimes) add(tm *timedMethod) {
	for _, p := range tm.periods {
		f.periodNs = append(f.periodNs, int64(p.end.Sub(p.start)))
	}
	f.sessionNs = append(f.sessionNs, tm.sessionNs...)
	f.period += tm.periodPlanTime()
	f.session += tm.sessionPlanTime()
}

// metrics writes the family's per-layer metrics. share is planner time
// (period plus session planning) over the traced serving.Run time.
func (f *familyTimes) metrics(m map[string]float64, name string, run float64) {
	periods := sortedNs(f.periodNs)
	sessions := sortedNs(f.sessionNs)
	us := func(p float64) float64 { return float64(percentile(sessions, p)) / 1e3 }
	m[name+".period_plan_ms_p50"] = float64(percentile(periods, 50)) / 1e6
	m[name+".session_plans"] = float64(len(sessions))
	m[name+".session_plan_us_p50"] = us(50)
	m[name+".session_plan_us_p99"] = us(99)
	m[name+".session_plan_s"] = f.session.Seconds()
	m[name+".share"] = ratio(f.period.Seconds()+f.session.Seconds(), run)
	if name == "core" {
		m["core.period_plans"] = float64(len(periods))
		m["core.period_plan_ms_max"] = float64(percentile(periods, 100)) / 1e6
		m["core.session_plan_us_p999"] = us(99.9)
	}
}

// spansFile is where a workload's span tree is written.
func spansFile(dir, workload string) string {
	return filepath.Join(dir, "spans-"+workload+".json")
}
