package serving

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adainf/internal/admit"
	"adainf/internal/audit"
	"adainf/internal/cluster"
	"adainf/internal/faults"
	"adainf/internal/gpu"
	"adainf/internal/metrics"
	"adainf/internal/sched"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// runLoop drives one serving simulation: for each period, the boundary,
// then every session that carries work, then the period's remaining
// retrains. Empty sessions are skipped, because the filler draws each
// period's arrivals and predictions per app ahead of its boundary.
// Whole-pool retrains apply in (applySession, planIdx) order (see
// retrainItem).
type runLoop struct {
	cfg    *Config
	states []*appState
	rec    *metrics.Recorder
	res    *Result

	nSessions         int
	sessionsPerPeriod int
	nPeriods          int

	// fill draws the next period's rows into spare while the loop serves
	// rows; score draws every served prediction (see pipeline.go).
	fill  filler
	score *scorer

	// ewmaTa is the run-wide EWMA of the session makespan (the slowest
	// job across every lane); it sets the concurrency each lane's share
	// is divided by.
	ewmaTa time.Duration
	ctx    *sched.SessionContext
	// laneJobs are each lane's session jobs, in laneApps order. They
	// change only with the placement and the DAGs, so periodStart
	// rebuilds them and a session writes only their Requests.
	laneJobs [][]sched.JobRequest

	// GPU lane state. Every server is a cluster of NGPUs lanes; NGPUs=1
	// is the degenerate one-lane cluster: laneApps[0] holds every app in
	// states order, laneOf is all zeros, and no capacity-checked
	// placement ever runs (a single partition was never capacity-checked).
	// The placement inputs (topo, wsBytes, loadBuf, lastRanks) and the
	// per-GPU counters (gpuBusySec) exist only with NGPUs > 1, which keeps
	// single-GPU results and traces free of placement events and per-lane
	// series.
	topo      cluster.Topology
	appNames  []string
	appIdx    map[string]int
	wsBytes   []int64   // per-app profiled working set, fixed for the run
	loadBuf   []float64 // scratch: per-app predicted load this period
	lastRanks []int     // previous period's load ranking
	laneOf    []int     // per-app lane under the current placement
	laneApps  [][]int   // per-lane app indexes, states order
	laneBusy  []float64 // scratch: per-lane retrain busy this session
	laneShare []float64 // scratch: per-lane quantized share this session
	// gpuBusySec accumulates each lane's busy GPU-amount-seconds for
	// Result.PerGPUUtilization; curLane tells runJob which lane the job
	// it is executing runs on.
	gpuBusySec []float64
	curLane    int

	// maxSpan is the longest job span (session start to completion,
	// lead included) observed so far. It bounds how many session spans
	// can overlap one instant, which in turn bounds legitimate raw GPU
	// utilization — see audit.OnUtilization.
	maxSpan simtime.Duration

	// Period-scoped state, rebuilt by each periodStart.
	periodFirst int
	periodLast  int
	retrains    []pendingRetrain // the period plan's retrains, plan order
	applies     []retrainItem    // the ones that apply this period, apply order
	nextApply   int              // cursor: applies[:nextApply] have applied
	// rows holds the period's arrivals and predictions per app.
	rows, spare *periodRows

	// flt, when non-nil, is the deterministic fault injector
	// (Config.Faults). Every decision it hands out is a pure hash of
	// the fault seed and stable coordinates, so the loop consults it
	// freely without perturbing the shared RNG stream.
	flt *faults.Injector
	// memFault marks the apps whose GPU memory allocation fails this
	// session (see faults.Injector.MemFail).
	memFault []bool
	// faultBusy records the GPU busy windows of failed whole-pool
	// retraining attempts for the current period, in plan order; they
	// join the pending retrains in the session GPU-share computation.
	faultBusy []busyWindow

	// Lane-liveness and admission state. alive is the current liveness
	// mask (all lanes alive unless gpu-crash faults strike a sharded
	// server; admits is nil without them and every path below stays
	// byte-identical to a build without lane faults), maskDirty forces a
	// failover re-pack at the boundary that changed it, unplacedIdx lists
	// the state indexes the re-pack could not fit on any surviving lane
	// (ascending), and admits holds each app's admission record for the
	// period (states order).
	alive       uint64
	maskDirty   bool
	unplacedIdx []int
	admits      []admission

	// aud, when non-nil, validates every event against the invariant
	// catalog (see internal/audit). It is read-only: it never touches
	// the RNG or simulation state, so metrics stay bit-identical.
	aud *audit.Auditor

	// tel is the run's telemetry collector (nil no-op by default).
	// Like the auditor it is strictly read-only: a traced run produces
	// bit-identical metrics to an untraced one.
	tel *telemetry.Collector
}

func newRunLoop(cfg *Config, states []*appState, rec *metrics.Recorder, res *Result) *runLoop {
	l := &runLoop{
		cfg:               cfg,
		states:            states,
		rec:               rec,
		res:               res,
		nSessions:         int(cfg.Horizon / clock.Session),
		sessionsPerPeriod: clock.SessionsPerPeriod(),
		fill:              filler{states: states, done: make(chan error, 1)},
		ewmaTa:            50 * time.Millisecond,
		tel:               cfg.Telemetry,
		ctx:               &sched.SessionContext{},
	}
	l.alive = cluster.AllAlive(cfg.NGPUs)
	l.appNames = make([]string, len(states))
	l.appIdx = make(map[string]int, len(states))
	l.laneOf = make([]int, len(states))
	l.laneApps = make([][]int, cfg.NGPUs)
	l.laneJobs = make([][]sched.JobRequest, cfg.NGPUs)
	l.laneBusy = make([]float64, cfg.NGPUs)
	l.laneShare = make([]float64, cfg.NGPUs)
	for i, st := range states {
		l.appNames[i] = st.inst.App.Name
		l.appIdx[st.inst.App.Name] = i
	}
	if cfg.NGPUs == 1 {
		// The degenerate placement: one lane serving every app.
		for i := range states {
			l.laneApps[0] = append(l.laneApps[0], i)
		}
	} else {
		l.topo = cluster.Topology{NGPUs: cfg.NGPUs, PerGPUBytes: gpu.MemBytes}
		l.wsBytes = make([]int64, len(states))
		l.loadBuf = make([]float64, len(states))
		l.gpuBusySec = make([]float64, cfg.NGPUs)
		for i, st := range states {
			// The app's GPU working set: every node resident at its full
			// structure plus its peak activation (the placement-relevant
			// upper bound; serving may run smaller structures).
			for _, ni := range st.inst.Nodes() {
				full := ni.FullStructure()
				l.wsBytes[i] += full.ParamBytes() + full.PeakActivationBytes()
			}
		}
		l.tel.EnableGPUCounters(cfg.NGPUs)
	}
	l.nPeriods = (l.nSessions + l.sessionsPerPeriod - 1) / l.sessionsPerPeriod
	l.rows = newPeriodRows(len(states), l.sessionsPerPeriod)
	l.spare = newPeriodRows(len(states), l.sessionsPerPeriod)
	if l.flt = faults.New(cfg.Faults); l.flt != nil {
		l.fill.flt = l.flt
		l.memFault = make([]bool, len(states))
		if cfg.NGPUs > 1 && l.flt.Config().GPUCrash > 0 {
			l.admits = make([]admission, len(states))
			for i := range l.admits {
				l.admits[i] = admission{cap: -1}
			}
		}
	}
	if cfg.Audit || cfg.AuditReport != nil {
		_, steady := cfg.Method.(sched.SteadyStatePlanner)
		l.aud = audit.New(cfg.AuditReport, audit.Params{
			GPUs:        cfg.GPUs,
			NGPUs:       cfg.NGPUs,
			PerGPUBytes: l.topo.PerGPUBytes,
			// Steady-state planners plan from the current share alone,
			// so their fraction sums audit against it strictly.
			StrictShare: steady,
		})
	}
	return l
}

// run serves every period, scoring predictions with rng. The filler
// and the scorer it starts have both returned when it does, on success
// and on error.
func (l *runLoop) run(rng *rand.Rand) error {
	l.score = newScorer(rng, l.rec)
	defer func() {
		// A fill is in flight only when an error cut the period short,
		// and that error is the one to return.
		_ = l.fill.join()
		l.score.stop()
	}()
	first, last := l.periodBounds(0)
	l.fill.start(0, first, last, l.spare)
	for p := 0; p < l.nPeriods; p++ {
		if err := l.periodStart(p); err != nil {
			return err
		}
		for sess := l.periodFirst; sess <= l.periodLast; sess++ {
			if !l.rows.work[sess-l.periodFirst] {
				continue
			}
			if err := l.workSession(sess); err != nil {
				return err
			}
		}
		// Applying reads this period's poolDists, so the leftovers must
		// apply before the next boundary rebuilds them.
		if err := l.drainRetrains(l.periodLast); err != nil {
			return err
		}
	}
	if l.aud != nil {
		if err := l.aud.Finish(); err != nil {
			return err
		}
		over, windows := l.rec.UtilizationOvershoot()
		overlap := int(l.maxSpan/clock.Session) + 1
		if err := l.aud.OnUtilization(over, windows, overlap); err != nil {
			return err
		}
		l.res.AuditChecks = l.aud.Checks()
	}
	if l.gpuBusySec != nil {
		laneSec := l.cfg.Horizon.Seconds() * l.cfg.GPUs / float64(l.cfg.NGPUs)
		l.res.PerGPUUtilization = make([]float64, len(l.gpuBusySec))
		if laneSec > 0 {
			for g, busy := range l.gpuBusySec {
				l.res.PerGPUUtilization[g] = busy / laneSec
			}
		}
	}
	l.tel.Counters(clock.SessionStart(l.nSessions))
	return nil
}

// periodBounds returns the first and last session of the period.
func (l *runLoop) periodBounds(period int) (first, last int) {
	first = period * l.sessionsPerPeriod
	return first, min(first+l.sessionsPerPeriod, l.nSessions) - 1
}

// periodStart handles one period boundary: it advances pools, rebuilds
// the per-period distribution maps, takes the period's arrivals and
// predictions from the filler, runs the method's period planning,
// starts the filler on the next period, and sorts the period's retrains
// into apply order.
func (l *runLoop) periodStart(period int) error {
	cfg := l.cfg
	first, last := l.periodBounds(period)
	if l.aud != nil {
		if err := l.aud.OnEvent(clock.PeriodStart(period)); err != nil {
			return err
		}
		// The old period's retrains are settled and its last work
		// session has run: its conservation equation closes here.
		if err := l.aud.BeginPeriod(period); err != nil {
			return err
		}
	}
	start := clock.SessionStart(first)
	if l.tel.Tracing() {
		// Retrains still pending at the boundary would have applied
		// after their period's last session: they are discarded.
		for i := range l.retrains {
			if pr := &l.retrains[i]; !pr.applied && !pr.abandoned {
				l.tel.RetrainDiscard(start, pr.App, pr.Node, pr.Samples)
			}
		}
		l.tel.Period(start, period, first, last)
		l.tel.Counters(start)
	}
	l.retrains = l.retrains[:0]
	l.applies = l.applies[:0]
	l.nextApply = 0
	l.periodFirst, l.periodLast = first, last
	if period > 0 {
		for _, st := range l.states {
			st.inst.AdvancePeriod(cfg.PoolSamples)
		}
		if l.flt != nil {
			// Drift spikes strike right after the boundary: the pool was
			// collected from the pre-shock distribution, so the live
			// distribution jumps away from everything the period's
			// retraining data represents — the §3.2 detector and the
			// schedulers have to catch up.
			for _, st := range l.states {
				name := st.inst.App.Name
				if seed, intensity, ok := l.flt.DriftSpike(period, name); ok {
					st.inst.ShockDrift(seed, intensity)
					l.res.FaultDriftSpikes++
					l.tel.DriftSpike(start, period, name, intensity)
				}
			}
		}
	}
	for _, st := range l.states {
		clear(st.updated)
		clear(st.carry)
		for k, ni := range st.inst.Nodes() {
			st.liveDists[k] = ni.LiveDist()
			st.liveCDFs[k] = st.liveDists[k].AppendCDF(st.liveCDFs[k][:0])
			pd, err := ni.PoolDist()
			if err != nil {
				return err
			}
			st.poolDists[k] = pd
			l.rec.SetPoolSize(period, ni.Pool.Len())
		}
	}

	// The filler drew this period's rows while the last one ran: swap
	// them in. It starts on the next period once the method has planned
	// this one, so the period planning's drift probe has every CPU.
	if err := l.fill.join(); err != nil {
		return err
	}
	l.rows, l.spare = l.spare, l.rows
	n := last - first + 1
	for i, st := range l.states {
		if br := l.rows.bursts[i]; br.ok {
			l.res.FaultBursts++
			l.tel.Burst(start, period, st.inst.App.Name, br.b.Start, br.b.End-br.b.Start, br.b.Factor)
		}
		if l.aud != nil {
			sum := 0
			for _, a := range l.rows.actual[i][:n] {
				sum += int(a)
			}
			l.aud.ExpectArrivals(st.inst.App.Name, sum)
		}
	}

	// The one-lane cluster keeps its degenerate placement: no lane
	// events, no capacity-checked re-pack, no admission gate.
	if l.topo.NGPUs > 1 {
		if err := l.laneEvents(period, start); err != nil {
			return err
		}
		if err := l.placeApps(period, start, n); err != nil {
			return err
		}
		if err := l.admitPeriod(period, start, n); err != nil {
			return err
		}
	}

	pctx := &sched.PeriodContext{
		Period: period,
		Start:  start,
		Length: clock.Period,
		GPUs:   cfg.GPUs,
	}
	for _, st := range l.states {
		pctx.Jobs = append(pctx.Jobs, sched.JobRequest{Instance: st.inst, Profile: st.prof, Costs: st.costs})
	}
	wall := time.Now()
	pplan, err := cfg.Method.OnPeriodStart(pctx)
	l.res.MeasuredPeriodPlanning += time.Since(wall)
	if err != nil {
		return err
	}
	if period+1 < l.nPeriods {
		nf, nl := l.periodBounds(period + 1)
		l.fill.start(period+1, nf, nl, l.spare)
	}
	l.res.PeriodOverhead = pplan.Overhead
	l.res.EdgeCloudTransfer = pplan.EdgeCloudTransfer
	l.res.EdgeCloudBytes = pplan.EdgeCloudBytes
	if l.aud != nil {
		if err := l.aud.OnPeriodPlan(pctx, pplan); err != nil {
			return err
		}
	}
	// Methods that build the retraining-inference DAG expose it
	// (core.Scheduler does). Each app's session jobs carry the period's
	// DAG, so the auditor checks retraining splits against it.
	dp, hasDags := cfg.Method.(interface{ DagFor(string) *sched.RIDag })
	for _, st := range l.states {
		st.dag = nil
		if hasDags {
			st.dag = dp.DagFor(st.inst.App.Name)
		}
	}
	for g, apps := range l.laneApps {
		jobs := l.laneJobs[g][:0]
		for _, i := range apps {
			st := l.states[i]
			jobs = append(jobs, sched.JobRequest{Instance: st.inst, Profile: st.prof, Dag: st.dag, Costs: st.costs})
		}
		l.laneJobs[g] = jobs
	}
	if l.tel.Tracing() {
		l.tel.PeriodPlan(start, period, len(pplan.Retrains), pplan.Overhead, pplan.EdgeCloudBytes)
		// Emit each app's impact degrees.
		for _, st := range l.states {
			if st.dag == nil {
				continue
			}
			for i := range st.dag.Vertices {
				v := &st.dag.Vertices[i]
				if v.Phase != sched.PhaseRetrain {
					continue
				}
				l.tel.Impact(start, period, st.inst.App.Name, v.Node,
					v.ImpactDegree, true)
			}
		}
	}

	l.faultBusy = l.faultBusy[:0]
	if cfg.Retraining {
		// The latest completion that still applies within this period:
		// applySessionOf(c) ≤ last ⟺ c ≤ SessionStart(last). Faulted
		// retries are only started when they can meet this window
		// (§3.3); otherwise the job is abandoned and the stale model
		// keeps serving.
		windowEnd := clock.SessionStart(last)
		for i := range pplan.Retrains {
			r := pplan.Retrains[i]
			ai, ok := l.appIdx[r.App]
			if !ok {
				return fmt.Errorf("serving: period %d plan retrains unknown app %q", period, r.App)
			}
			node := nodeIndex(l.states[ai].inst, r.Node)
			if node < 0 {
				return fmt.Errorf("serving: period %d plan retrains unknown node %q of %q", period, r.Node, r.App)
			}
			if l.admits != nil && l.admits[ai].degraded {
				// The admission gate suspended this app's retraining: the
				// job never starts, charges no GPU time, and the stale
				// model keeps serving (the abandoned-job mechanics).
				l.retrains = append(l.retrains, pendingRetrain{PeriodRetrain: r, abandoned: true, app: ai, node: node})
				continue
			}
			// Placement only changes at period boundaries, so the owning
			// lane is fixed for the whole period.
			lane := l.laneOf[ai]
			abandoned := false
			if l.flt != nil && r.Busy > 0 && r.GPUFraction > 0 {
				fate := l.flt.RetrainFate(period, i, r.App, r.Node, r.Completion, r.Busy, windowEnd)
				if fate.Slowed {
					l.res.FaultRetrainSlowed++
					l.tel.RetrainFault(r.Completion, r.App, r.Node, "retrain-slow", 0)
				}
				for ai, at := range fate.Attempts {
					if !at.Failed {
						continue
					}
					// A failed attempt burned its full busy window on the
					// GPU and then discarded its progress.
					l.res.FaultRetrainFailures++
					l.tel.RetrainFault(at.Completion, r.App, r.Node, "retrain-fail", ai)
					if err := l.chargeRetrain(r.App, lane, at.Start, at.Completion, r.GPUFraction); err != nil {
						return err
					}
					l.faultBusy = append(l.faultBusy, busyWindow{
						from: at.Start, to: at.Completion, fraction: r.GPUFraction, lane: lane,
					})
				}
				if l.aud != nil {
					if err := l.aud.OnFaultRetrain(i, len(fate.Attempts),
						l.flt.Config().MaxRetries, fate.Completion, windowEnd, fate.Abandoned); err != nil {
						return err
					}
				}
				if fate.Abandoned {
					abandoned = true
					l.res.FaultRetrainAbandoned++
					l.tel.RetrainAbandon(start, r.App, r.Node, len(fate.Attempts), r.Samples)
				} else {
					r.Completion = fate.Completion
					r.Busy = fate.Busy
				}
			}
			l.retrains = append(l.retrains, pendingRetrain{PeriodRetrain: r, abandoned: abandoned, app: ai, node: node})
			if !abandoned && r.GPUFraction > 0 && r.Busy > 0 {
				if err := l.chargeRetrain(r.App, lane, r.Completion.Add(-r.Busy), r.Completion, r.GPUFraction); err != nil {
					return err
				}
			}
		}
		// Completions that apply within the period join the apply order
		// (pointers into l.retrains are stable: the slice is fully built
		// above).
		for i := range l.retrains {
			pr := &l.retrains[i]
			if pr.abandoned {
				continue // never completes; the stale model keeps serving
			}
			as := max(applySessionOf(pr.Completion, clock.Session), first)
			if as > last {
				continue // never applies; discarded at the next boundary
			}
			l.applies = append(l.applies, retrainItem{pr: pr, applySession: as, planIdx: i})
		}
		sortApplyOrder(l.applies)
	}

	return nil
}

// chargeRetrain books one whole-pool retraining window [from, to) at
// the given GPU fraction on the owning lane, after the auditor's charge
// check (under lane faults).
func (l *runLoop) chargeRetrain(app string, lane int, from, to simtime.Instant, fraction float64) error {
	if l.aud != nil && l.admits != nil {
		if err := l.aud.OnRetrainCharge(app, lane); err != nil {
			return err
		}
	}
	l.book(lane, from, to, fraction)
	return nil
}

// book records GPU time [from, to) at the given fraction on a lane: the
// recorder's busy time and, on a sharded server, the lane's per-GPU
// counter and its telemetry series.
func (l *runLoop) book(lane int, from, to simtime.Instant, fraction float64) {
	l.rec.RecordBusy(from, to, fraction)
	if l.gpuBusySec != nil {
		l.gpuBusySec[lane] += fraction * to.Sub(from).Seconds()
		l.tel.GPUBusy(lane, to.Sub(from), fraction)
	}
}

// laneEvents evolves the lane-liveness mask at a period boundary:
// crash and recovery decisions are pure hashes of the fault seed and
// (period, lane), so the mask's trajectory — and everything downstream
// of it — is identical across repeats. A change arms the failover
// re-pack placeApps performs before any session plans against the new
// mask.
func (l *runLoop) laneEvents(period int, start simtime.Instant) error {
	if l.admits == nil {
		return nil
	}
	alive, crashed, recovered := l.flt.LaneEvents(period, l.topo.NGPUs, l.alive)
	if l.aud != nil {
		if err := l.aud.OnLaneEvents(period, l.topo.NGPUs, alive, crashed, recovered); err != nil {
			return err
		}
	}
	for _, g := range recovered {
		l.res.FaultGPURecoveries++
		l.tel.GPURecover(start, period, g, alive)
	}
	for _, g := range crashed {
		l.res.FaultGPUCrashes++
		l.tel.GPUCrash(start, period, g, alive)
	}
	if alive != l.alive {
		l.alive = alive
		l.maskDirty = true
	}
	return nil
}

// placeApps recomputes the app→GPU placement at a period boundary.
// Apps are ranked by the period's predicted load; the placement only
// changes when the ranking does (or an app's working set would — those
// are fixed for the run) or a lane-liveness change forces a failover
// re-pack, so steady workloads keep a stable placement. With a dead
// lane the pack runs over the surviving lanes only; apps that fit
// nowhere are left unplaced for the admission gate to shed.
func (l *runLoop) placeApps(period int, start simtime.Instant, n int) error {
	for i := range l.states {
		sum := 0
		for _, p := range l.rows.predicted[i][:n] {
			sum += int(p)
		}
		l.loadBuf[i] = float64(sum)
	}
	ranks := cluster.RankLoads(l.appNames, l.loadBuf)
	if l.lastRanks != nil && !l.maskDirty && cluster.RanksEqual(ranks, l.lastRanks) {
		return nil
	}
	forced := l.maskDirty
	l.maskDirty = false
	apps := make([]cluster.AppLoad, len(l.states))
	for i, name := range l.appNames {
		apps[i] = cluster.AppLoad{Name: name, WorkingSetBytes: l.wsBytes[i], LoadRank: ranks[i]}
	}
	var pl *cluster.Placement
	var unplaced []cluster.AppLoad
	var err error
	if l.alive == cluster.AllAlive(l.topo.NGPUs) {
		pl, err = cluster.Place(l.topo, apps)
	} else {
		pl, unplaced, err = cluster.Replace(l.topo, l.alive, apps)
	}
	if err != nil {
		return err
	}
	l.lastRanks = append(l.lastRanks[:0], ranks...)
	for g := range l.laneApps {
		l.laneApps[g] = l.laneApps[g][:0]
	}
	l.unplacedIdx = l.unplacedIdx[:0]
	var unplacedNames []string
	if len(unplaced) > 0 {
		skip := make(map[string]bool, len(unplaced))
		for _, a := range unplaced {
			skip[a.Name] = true
			unplacedNames = append(unplacedNames, a.Name)
		}
		for i, name := range l.appNames {
			if skip[name] {
				l.laneOf[i] = -1
				l.unplacedIdx = append(l.unplacedIdx, i)
			}
		}
	}
	for i, name := range l.appNames {
		g, ok := pl.GPU(name)
		if !ok {
			continue // unplaced; indexed above
		}
		l.laneOf[i] = g
		l.laneApps[g] = append(l.laneApps[g], i)
	}
	if forced {
		l.res.FaultReplacements++
		l.tel.Replace(start, period, pl.Topology().AliveMask(), pl.Len(), len(unplaced))
	}
	if l.tel.Tracing() {
		for i, name := range l.appNames {
			l.tel.Placement(start, period, name, l.laneOf[i], l.wsBytes[i], ranks[i])
		}
	}
	if l.aud != nil {
		return l.aud.OnReplace(period, pl, l.appNames, unplacedNames)
	}
	return nil
}

// admitPeriod runs the SLO-feasibility gate after a (possibly
// degraded) placement: per surviving lane it asks whether the lane's
// GPU amount can serve every placed application's predicted peak
// session load at its smallest profiled structures within SLO.
// Infeasible lanes enter the degraded-admission state — retraining
// suspended, smallest structures at the admitted fraction, per-app
// request caps with the excess shed in rank order — and unplaced
// applications shed everything. The gate runs every period while any
// lane is down (its inputs are the period's predictions, so decisions
// are deterministic and constant within the period).
func (l *runLoop) admitPeriod(period int, start simtime.Instant, n int) error {
	if l.admits == nil {
		return nil
	}
	for i := range l.admits {
		l.admits[i] = admission{cap: -1}
	}
	if l.alive == cluster.AllAlive(l.topo.NGPUs) && len(l.unplacedIdx) == 0 {
		return nil
	}
	cfg := l.cfg
	var unplacedNames []string
	for _, i := range l.unplacedIdx {
		l.admits[i] = admission{cap: 0, degraded: true}
		unplacedNames = append(unplacedNames, l.appNames[i])
	}
	laneAmount := cfg.GPUs / float64(cfg.NGPUs)
	var audLanes []audit.AdmitLane
	for g := 0; g < l.topo.NGPUs; g++ {
		if l.alive&(1<<uint(g)) == 0 || len(l.laneApps[g]) == 0 {
			continue
		}
		apps := make([]admit.App, 0, len(l.laneApps[g]))
		for _, i := range l.laneApps[g] {
			st := l.states[i]
			peak := 0
			for _, p := range l.rows.predicted[i][:n] {
				peak = max(peak, int(p))
			}
			apps = append(apps, admit.App{
				Name:     st.inst.App.Name,
				Rank:     l.lastRanks[i],
				Requests: peak,
				SLO:      st.inst.App.SLO,
				Latency:  l.smallestLatency(st),
			})
		}
		out, err := admit.Evaluate(laneAmount, apps)
		if err != nil {
			return err
		}
		l.tel.Admit(start, period, g, out.Feasible, out.TotalFraction(), out.TotalShed())
		if !out.Feasible {
			for di := range out.Decisions {
				d := &out.Decisions[di]
				l.admits[l.appIdx[d.Name]] = admission{cap: d.Admitted, frac: d.Fraction, degraded: true}
			}
		}
		if l.aud != nil {
			o := out
			audLanes = append(audLanes, audit.AdmitLane{Lane: g, Outcome: &o})
		}
	}
	if l.aud != nil {
		if err := l.aud.OnAdmission(period, laneAmount, audLanes, unplacedNames); err != nil {
			return err
		}
	}
	for _, a := range l.admits {
		if a.degraded {
			l.res.FaultSuspendedRetrainPeriods++
		}
	}
	return nil
}

// smallestLatency builds the admission gate's latency probe for one
// app: the session latency of serving n requests at GPU fraction f
// with every node at its smallest profiled structure — exactly the
// degraded-admission serving configuration runJob executes.
func (l *runLoop) smallestLatency(st *appState) func(int, float64) (simtime.Duration, error) {
	return func(n int, f float64) (simtime.Duration, error) {
		batch := fallbackBatch(n)
		nBatches := (n + batch - 1) / batch
		var total simtime.Duration
		for _, np := range st.degradedNodes {
			per, err := st.perBatch(np, batch, f)
			if err != nil {
				return 0, err
			}
			total += per * simtime.Duration(nBatches)
		}
		return total, nil
	}
}

// drainRetrains applies every retrain due at or before maxSession, in
// (applySession, planIdx) order.
func (l *runLoop) drainRetrains(maxSession int) error {
	for l.nextApply < len(l.applies) && l.applies[l.nextApply].applySession <= maxSession {
		it := &l.applies[l.nextApply]
		l.nextApply++
		if l.aud != nil {
			if err := l.aud.OnRetrainApply(it.applySession, it.planIdx); err != nil {
				return err
			}
		}
		l.tel.RetrainApply(it.pr.Completion, it.pr.App, it.pr.Node,
			it.pr.Samples, it.applySession, it.planIdx)
		l.applyRetrain(it.pr)
	}
	return nil
}

// applyRetrain trains one node on its period pool. periodStart has
// resolved the app and node positions.
func (l *runLoop) applyRetrain(pr *pendingRetrain) {
	pr.applied = true
	st := l.states[pr.app]
	ni := st.inst.Nodes()[pr.node]
	used := ni.ConsumeSamples(pr.Samples)
	ni.State.Train(st.poolDists[pr.node], float64(used))
	ni.NoteTrained()
	st.updated[pr.node] = true
	l.rec.RecordRetrainEffort(pr.Completion, pr.Busy, used)
}

// workSession executes one request-bearing session: session planning
// followed by job execution. Each GPU lane gets its own share (from its
// own lane's retrain occupancy) and its own session plan over only the
// apps placed on it, and its jobs execute before the next lane plans —
// scheduler plans alias reusable arenas, so lane g's plan must be
// consumed before lane g+1's PlanSession call may overwrite it.
func (l *runLoop) workSession(sess int) error {
	cfg := l.cfg
	// Retrains that completed by this session's start apply before it
	// plans.
	if err := l.drainRetrains(sess); err != nil {
		return err
	}
	start := clock.SessionStart(sess)
	si := sess - l.periodFirst
	if l.aud != nil {
		if err := l.aud.OnEvent(start); err != nil {
			return err
		}
	}
	// GPU claimed per lane by still-running whole-pool retrains, then by
	// failed retraining attempts (which occupy the GPU for their full
	// windows), each in plan order: the fixed floating-point summation
	// order keeps runs bit-identical across repeats.
	for g := range l.laneBusy {
		l.laneBusy[g] = 0
	}
	// Placement changes only at boundaries, so a retrain's lane is its
	// app's current one. An unplaced app (lane -1) has every retrain
	// suspended, hence abandoned, which is tested before the lane is.
	for i := range l.retrains {
		pr := &l.retrains[i]
		if !pr.applied && !pr.abandoned && pr.GPUFraction > 0 && !start.Before(pr.Completion.Add(-pr.Busy)) {
			l.laneBusy[l.laneOf[pr.app]] += pr.GPUFraction
		}
	}
	for i := range l.faultBusy {
		fb := &l.faultBusy[i]
		if !start.Before(fb.from) && start.Before(fb.to) {
			l.laneBusy[fb.lane] += fb.fraction
		}
	}
	concurrency := math.Ceil(float64(l.ewmaTa) / float64(clock.Session))
	if concurrency < 1 {
		concurrency = 1
	}
	laneAmount := cfg.GPUs / float64(cfg.NGPUs)
	for g := range l.laneShare {
		avail := laneAmount - l.laneBusy[g]
		if avail < 0.1 {
			avail = 0.1
		}
		share := avail / concurrency
		if share > avail {
			share = avail
		}
		// Quantize for plan-cache friendliness.
		share = math.Round(share*100) / 100
		if share < cluster.MinFraction {
			share = cluster.MinFraction
		}
		l.laneShare[g] = share
	}

	if l.flt != nil {
		// Per-app memory faults, keyed by the owning lane so a placement
		// change re-rolls them (two lanes never share a memory
		// partition). Every app with arrivals counts its degraded job
		// here, before any lane plans.
		for i, st := range l.states {
			l.memFault[i] = l.flt.MemFail(sess, st.inst.App.Name, l.laneOf[i])
			if l.memFault[i] && l.rows.actual[i][si] > 0 {
				l.res.FaultDegradedJobs++
				l.tel.Degrade(start, sess, st.inst.App.Name)
			}
		}
	}

	var sessionMakespan simtime.Duration
	// Apps the failover re-pack could not place shed every arrival:
	// no lane can hold their working set until one recovers.
	for _, i := range l.unplacedIdx {
		if a := int(l.rows.actual[i][si]); a > 0 {
			if err := l.shedRequests(start, sess, l.states[i], a); err != nil {
				return err
			}
		}
	}
	for g := range l.laneApps {
		apps := l.laneApps[g]
		if len(apps) == 0 {
			continue
		}
		ctx := l.ctx
		ctx.Session = sess
		ctx.Start = start
		ctx.GPUShare = l.laneShare[g]
		ctx.GPU = g
		ctx.Jobs = l.laneJobs[g]
		for k, i := range apps {
			ctx.Jobs[k].Requests = int(l.rows.predicted[i][si])
		}
		wall := time.Now()
		plan, err := cfg.Method.PlanSession(ctx)
		dt := time.Since(wall)
		l.res.MeasuredSessionPlanning += dt
		l.tel.PlanningObserve(dt)
		if err != nil {
			return err
		}
		if plan.Overhead > l.res.SessionOverhead {
			// Report the method's solve cost, not a cache hit's zero.
			l.res.SessionOverhead = plan.Overhead
		}
		if l.aud != nil {
			if err := l.aud.OnSessionPlan(ctx, plan); err != nil {
				return err
			}
		}
		if l.tel.Tracing() {
			l.tel.SessionPlan(start, sess, ctx.GPUShare, plan.Overhead, len(plan.Jobs))
			for i := range plan.Jobs {
				jp := &plan.Jobs[i]
				l.tel.JobPlan(start, sess, jp.App, jp.Fraction, jp.Batch, jp.InferTime, jp.RetrainTime)
			}
		}
		l.curLane = g
		for li, i := range apps {
			actual := int(l.rows.actual[i][si])
			if actual == 0 {
				continue
			}
			st := l.states[i]
			served, shed := actual, 0
			if l.admits != nil {
				if cap := l.admits[i].cap; cap >= 0 && actual > cap {
					served, shed = cap, actual-cap
				}
			}
			if shed > 0 {
				// Degraded admission: the excess over the gate's cap is
				// shed (recorded missed, so conservation closes) before
				// the admitted remainder is served.
				if err := l.shedRequests(start, sess, st, shed); err != nil {
					return err
				}
			}
			if served == 0 {
				continue
			}
			jp := jobPlanFor(plan, li, st.inst.App.Name)
			var degraded sched.JobPlan
			if l.admits != nil && l.admits[i].degraded {
				// Degraded admission serves at the smallest profiled
				// structures, within the fraction the gate admitted, with
				// no retraining slice.
				frac := l.admits[i].frac
				if frac < cluster.MinFraction {
					frac = cluster.MinFraction
				}
				degraded = sched.JobPlan{
					App:      st.inst.App.Name,
					Fraction: frac,
					Batch:    fallbackBatch(served),
					Nodes:    st.degradedNodes,
				}
				jp = &degraded
			} else if l.flt != nil && l.memFault[i] {
				// Transient GPU-memory allocation failure: the planned (or
				// fallback) structures cannot be made resident this
				// session. Serve with the smallest profiled structure of
				// every node and no retraining slice — the stale model at a
				// strictly lower latency, never an SLO violation.
				degraded = sched.JobPlan{
					App:      st.inst.App.Name,
					Fraction: cluster.MinFraction,
					Batch:    fallbackBatch(actual),
					Nodes:    st.degradedNodes,
				}
				if jp != nil && jp.Fraction > 0 && jp.Batch > 0 {
					degraded.Fraction, degraded.Batch = jp.Fraction, jp.Batch
				}
				if l.aud != nil {
					if err := l.aud.OnFaultDegrade(ctx, li, jp, &degraded); err != nil {
						return err
					}
				}
				jp = &degraded
			}
			dur, err := l.runJob(st, jp, plan.Overhead, start, served)
			if err != nil {
				return err
			}
			if l.aud != nil {
				// Same SLO comparison runJob scored the requests with.
				if err := l.aud.OnServed(st.inst.App.Name, served, dur <= st.inst.App.SLO); err != nil {
					return err
				}
			}
			if dur > sessionMakespan {
				sessionMakespan = dur
			}
		}
	}
	l.noteMakespan(sessionMakespan)
	return nil
}

// shedRequests records n requests of one app shed by the admission
// gate: counted as SLO-missed (request conservation still closes),
// never scored (nothing was served, so no prediction draws — the RNG
// stream is untouched), traced and audited.
func (l *runLoop) shedRequests(start simtime.Instant, sess int, st *appState, n int) error {
	name := st.inst.App.Name
	if l.aud != nil {
		if err := l.aud.OnShed(sess, name, n); err != nil {
			return err
		}
		if err := l.aud.OnServed(name, n, false); err != nil {
			return err
		}
	}
	l.tel.Shed(start, sess, name, n)
	l.rec.RecordRequests(start, false, n)
	l.res.Requests += n
	l.res.FaultShedRequests += n
	return nil
}

// noteMakespan folds a session's makespan (its slowest job across every
// lane) into the run-wide EWMA and the longest-span bound.
func (l *runLoop) noteMakespan(d simtime.Duration) {
	if d > 0 {
		l.ewmaTa = time.Duration(0.1*float64(d) + 0.9*float64(l.ewmaTa))
	}
	if d > l.maxSpan {
		l.maxSpan = d
	}
}

// admission is one app's admission-gate decision for the period
// (admitPeriod). A degraded app has its whole-pool retraining
// suspended and serves at its smallest profiled structures within frac,
// with no retraining slice; cap bounds its per-session requests (-1 =
// uncapped), the excess shed.
type admission struct {
	cap      int
	frac     float64
	degraded bool
}

// busyWindow is one failed retraining attempt's GPU occupancy.
type busyWindow struct {
	from, to simtime.Instant
	fraction float64
	lane     int
}
