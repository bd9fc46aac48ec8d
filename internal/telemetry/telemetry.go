package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"time"
	"unicode/utf8"

	"adainf/internal/simtime"
)

// Event types of the JSONL decision trace. Every line is one JSON
// object with at least {"ts": <ns of simulated time>, "ev": <type>};
// the remaining fields depend on the type (see Schema and DESIGN.md
// §10).
const (
	EvRun            = "run"                   // run header: method, gpus, horizon_ns, apps
	EvPeriod         = "period"                // period boundary: period, first_session, last_session
	EvImpact         = "impact"                // DAG shape: app, node, degree, retrain
	EvPeriodPlan     = "period_plan"           // period, retrains, overhead_ns, cloud_bytes
	EvSessionPlan    = "session_plan"          // session, share, overhead_ns, jobs
	EvJobPlan        = "job_plan"              // session, app, fraction, batch, infer_ns, retrain_ns
	EvJob            = "job"                   // executed job: app, session, requests, …
	EvRetrainApply   = "retrain_apply"         // app, node, samples, apply_session, plan_idx
	EvRetrainDiscard = "retrain_discard"       // app, node, samples
	EvEvict          = "evict"                 // gpumem eviction: app, model, layer, kind, bytes, score, pin
	EvCache          = "cache"                 // profile-cache lookup: app, hit
	EvCacheCorrupt   = "profile_cache_corrupt" // undecodable cache entry deleted: app
	EvProfileBuild   = "profile_build"         // one app's profile build: app, wall_ms, workers, units, cached
	EvProfileUnit    = "profile_unit"          // one profiling work unit: app, node, unit, wall_ms
	EvCounters       = "counters"              // running counters: ff_hits, ff_misses, cache_hits, cache_misses, cache_corrupt
	EvRetrainFault   = "retrain_fault"         // injected retraining fault: app, node, kind, attempt
	EvRetrainAbandon = "retrain_abandon"       // retraining abandoned after retries: app, node, attempts, samples
	EvDegrade        = "degrade"               // GPU-mem fault degraded a job: session, app
	EvBurst          = "burst"                 // arrival burst injected: period, app, first_session, sessions, factor
	EvDriftSpike     = "drift_spike"           // drift spike injected: period, app, intensity
	EvPlacement      = "placement"             // app→GPU assignment (multi-GPU): period, app, gpu, ws_bytes, load_rank
	EvGPUCrash       = "gpu_crash"             // injected lane crash: period, gpu, alive_mask
	EvGPURecover     = "gpu_recover"           // injected lane recovery: period, gpu, alive_mask
	EvReplace        = "replace"               // failover re-placement: period, alive_mask, placed, unplaced
	EvAdmit          = "admit"                 // SLO-feasibility gate: period, gpu, feasible, fraction, shed
	EvShed           = "shed"                  // requests shed under admission control: session, app, requests
)

// Options configures a Collector.
type Options struct {
	// Trace, when non-nil, receives the JSONL decision trace. The
	// collector buffers writes; call Close to flush. The writer is not
	// closed by the collector.
	Trace io.Writer
	// Hist enables the latency histograms (inference, retraining,
	// end-to-end queueing delay).
	Hist bool
}

// Collector is the per-run telemetry sink. A nil *Collector is the
// zero-cost no-op: every method nil-checks its receiver, so callers
// hold a possibly-nil pointer and call unconditionally. A non-nil
// collector is not safe for concurrent use; each serving run (or
// profiling pass) owns its own.
type Collector struct {
	// Infer, Retrain, and Queue are the latency histograms (nil unless
	// Options.Hist). Queue is the end-to-end queueing delay: job
	// latency minus the time actually spent inferring and retraining,
	// i.e. scheduling lead plus in-job waiting.
	Infer   *Histogram
	Retrain *Histogram
	Queue   *Histogram
	// Planning is the wall-clock time per PlanSession call, in ms (nil
	// unless Options.Hist) — the planner cost fig tables report.
	Planning *Histogram
	// Profiling is the wall-clock time per offline profile build, in ms
	// (nil unless Options.Hist). Cache hits are not observed — the
	// histogram measures actual measurement passes.
	Profiling *Histogram

	w   *bufio.Writer
	buf []byte
	err error

	ffHits, ffMisses       uint64
	cacheHits, cacheMisses uint64
	cacheCorrupt           uint64

	// gpuBusyMs accumulates busy GPU-milliseconds per GPU lane
	// (fraction × duration). Nil unless EnableGPUCounters sized it —
	// single-GPU runs never carry the per-GPU fields, keeping their
	// traces byte-identical to builds without the counters.
	gpuBusyMs []float64
}

// New returns a collector for the options, or nil (the no-op) when the
// options enable nothing.
func New(o Options) *Collector {
	if o.Trace == nil && !o.Hist {
		return nil
	}
	c := &Collector{}
	if o.Trace != nil {
		c.w = bufio.NewWriterSize(o.Trace, 1<<16)
		c.buf = make([]byte, 0, 512)
	}
	if o.Hist {
		c.Infer = NewHistogram()
		c.Retrain = NewHistogram()
		c.Queue = NewHistogram()
		c.Planning = NewHistogram()
		c.Profiling = NewHistogram()
	}
	return c
}

// HistEnabled reports whether the latency histograms are collecting.
func (c *Collector) HistEnabled() bool { return c != nil && c.Infer != nil }

// Tracing reports whether a JSONL sink is attached.
func (c *Collector) Tracing() bool { return c != nil && c.w != nil }

// Close flushes the trace sink. It does not close the underlying
// writer. It returns the first write error encountered during the run.
func (c *Collector) Close() error {
	if c == nil || c.w == nil {
		return c.Err()
	}
	if err := c.w.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// Err returns the first trace write error, if any.
func (c *Collector) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// --- line building -------------------------------------------------

// begin starts a JSONL line: {"ts":<ns>,"ev":"<ev>".
func (c *Collector) begin(ts simtime.Instant, ev string) {
	c.buf = append(c.buf[:0], `{"ts":`...)
	c.buf = strconv.AppendInt(c.buf, int64(ts), 10)
	c.buf = append(c.buf, `,"ev":"`...)
	c.buf = append(c.buf, ev...)
	c.buf = append(c.buf, '"')
}

func (c *Collector) fStr(key, v string) {
	c.buf = append(c.buf, ',', '"')
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, '"', ':')
	c.buf = appendJSONString(c.buf, v)
}

func (c *Collector) fInt(key string, v int64) {
	c.buf = append(c.buf, ',', '"')
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, '"', ':')
	c.buf = strconv.AppendInt(c.buf, v, 10)
}

func (c *Collector) fFloat(key string, v float64) {
	c.buf = append(c.buf, ',', '"')
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, '"', ':')
	c.buf = strconv.AppendFloat(c.buf, v, 'g', -1, 64)
}

func (c *Collector) fBool(key string, v bool) {
	c.buf = append(c.buf, ',', '"')
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, '"', ':')
	c.buf = strconv.AppendBool(c.buf, v)
}

func (c *Collector) end() {
	c.buf = append(c.buf, '}', '\n')
	if _, err := c.w.Write(c.buf); err != nil && c.err == nil {
		c.err = err
	}
}

// appendJSONString appends v as a JSON string literal. Control
// characters, quotes, and backslashes are escaped; the trace's strings
// are plain ASCII identifiers, so the fast path is a straight copy.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	for _, r := range v {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0',
				"0123456789abcdef"[r>>4], "0123456789abcdef"[r&0xf])
		case r < utf8.RuneSelf:
			b = append(b, byte(r))
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// --- event emitters ------------------------------------------------

// Run emits the run header.
func (c *Collector) Run(method string, gpus float64, horizon simtime.Duration, apps int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(0, EvRun)
	c.fStr("method", method)
	c.fFloat("gpus", gpus)
	c.fInt("horizon_ns", int64(horizon))
	c.fInt("apps", int64(apps))
	c.end()
}

// Period emits a period-boundary event.
func (c *Collector) Period(ts simtime.Instant, period, firstSession, lastSession int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvPeriod)
	c.fInt("period", int64(period))
	c.fInt("first_session", int64(firstSession))
	c.fInt("last_session", int64(lastSession))
	c.end()
}

// Impact emits one node of the period's retraining-inference DAG: its
// drift impact degree and whether it retrains this period.
func (c *Collector) Impact(ts simtime.Instant, period int, app, node string, degree float64, retrain bool) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvImpact)
	c.fInt("period", int64(period))
	c.fStr("app", app)
	c.fStr("node", node)
	c.fFloat("degree", degree)
	c.fBool("retrain", retrain)
	c.end()
}

// PeriodPlan emits the period plan's shape.
func (c *Collector) PeriodPlan(ts simtime.Instant, period, retrains int, overhead simtime.Duration, cloudBytes int64) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvPeriodPlan)
	c.fInt("period", int64(period))
	c.fInt("retrains", int64(retrains))
	c.fInt("overhead_ns", int64(overhead))
	c.fInt("cloud_bytes", cloudBytes)
	c.end()
}

// SessionPlan emits one session plan's envelope.
func (c *Collector) SessionPlan(ts simtime.Instant, session int, share float64, overhead simtime.Duration, jobs int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvSessionPlan)
	c.fInt("session", int64(session))
	c.fFloat("share", share)
	c.fInt("overhead_ns", int64(overhead))
	c.fInt("jobs", int64(jobs))
	c.end()
}

// JobPlan emits one job's planned allocation: GPU fraction, batch
// size, and the planned inference/retraining split.
func (c *Collector) JobPlan(ts simtime.Instant, session int, app string, fraction float64, batch int, infer, retrain simtime.Duration) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvJobPlan)
	c.fInt("session", int64(session))
	c.fStr("app", app)
	c.fFloat("fraction", fraction)
	c.fInt("batch", int64(batch))
	c.fInt("infer_ns", int64(infer))
	c.fInt("retrain_ns", int64(retrain))
	c.end()
}

// Job records one executed job: it feeds the latency histograms and
// emits the job span. ts is the session start; latency is measured from
// it (so it includes lead). replay is always false now that serving
// executes every session; the field stays so traces keep their schema.
func (c *Collector) Job(ts simtime.Instant, session int, app string, requests int,
	lead, infer, retrain, latency simtime.Duration, met, replay bool) {
	if c == nil {
		return
	}
	if c.Infer != nil {
		const ms = 1e-6 // ns → ms
		c.Infer.ObserveMs(float64(infer) * ms)
		if retrain > 0 {
			c.Retrain.ObserveMs(float64(retrain) * ms)
		}
		c.Queue.ObserveMs(float64(latency-infer-retrain) * ms)
	}
	if c.w == nil {
		return
	}
	c.begin(ts, EvJob)
	c.fInt("session", int64(session))
	c.fStr("app", app)
	c.fInt("requests", int64(requests))
	c.fInt("lead_ns", int64(lead))
	c.fInt("infer_ns", int64(infer))
	c.fInt("retrain_ns", int64(retrain))
	c.fInt("latency_ns", int64(latency))
	c.fBool("met", met)
	c.fBool("replay", replay)
	c.end()
}

// RetrainApply emits one whole-pool retraining application.
func (c *Collector) RetrainApply(ts simtime.Instant, app, node string, samples, applySession, planIdx int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvRetrainApply)
	c.fStr("app", app)
	c.fStr("node", node)
	c.fInt("samples", int64(samples))
	c.fInt("apply_session", int64(applySession))
	c.fInt("plan_idx", int64(planIdx))
	c.end()
}

// RetrainDiscard emits one planned retraining that never applied (its
// apply session fell beyond its period).
func (c *Collector) RetrainDiscard(ts simtime.Instant, app, node string, samples int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvRetrainDiscard)
	c.fStr("app", app)
	c.fStr("node", node)
	c.fInt("samples", int64(samples))
	c.end()
}

// Evict emits one GPU-memory eviction: the victim's identity, its
// policy score, and whether it was staged into PIN memory (§3.4.2).
func (c *Collector) Evict(ts simtime.Instant, app, model string, layer, kind int, bytes int64, score float64, pinned bool) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvEvict)
	c.fStr("app", app)
	c.fStr("model", model)
	c.fInt("layer", int64(layer))
	c.fInt("kind", int64(kind))
	c.fInt("bytes", bytes)
	c.fFloat("score", score)
	c.fBool("pin", pinned)
	c.end()
}

// Cache counts one profile-cache lookup and emits it.
func (c *Collector) Cache(app string, hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.cacheHits++
	} else {
		c.cacheMisses++
	}
	if c.w == nil {
		return
	}
	c.begin(0, EvCache)
	c.fStr("app", app)
	c.fBool("hit", hit)
	c.end()
}

// CacheCorrupt counts one undecodable profile-cache entry (deleted on
// discovery) and emits it.
func (c *Collector) CacheCorrupt(app string) {
	if c == nil {
		return
	}
	c.cacheCorrupt++
	if c.w == nil {
		return
	}
	c.begin(0, EvCacheCorrupt)
	c.fStr("app", app)
	c.end()
}

// CacheCorruptCount returns the corrupt-cache-entry counter.
func (c *Collector) CacheCorruptCount() uint64 {
	if c == nil {
		return 0
	}
	return c.cacheCorrupt
}

// ProfileBuild records one application's offline profile build: its
// wall-clock time feeds the profiling histogram (cache hits excluded —
// a hit measures the disk, not the profiler) and the build's shape is
// emitted as a trace event. ts is 0: profiling happens before simulated
// time starts.
func (c *Collector) ProfileBuild(app string, wall time.Duration, workers, units int, cached bool) {
	if c == nil {
		return
	}
	if c.Profiling != nil && !cached {
		c.Profiling.ObserveMs(float64(wall.Nanoseconds()) * 1e-6)
	}
	if c.w == nil {
		return
	}
	c.begin(0, EvProfileBuild)
	c.fStr("app", app)
	c.fFloat("wall_ms", float64(wall.Nanoseconds())*1e-6)
	c.fInt("workers", int64(workers))
	c.fInt("units", int64(units))
	c.fBool("cached", cached)
	c.end()
}

// ProfileUnit emits one profiling work unit's span: the node, the unit
// label (a structure's exit depth or "retrain"), and its wall-clock
// time. Unit spans are trace-only; a tracing collector forces the
// profiler serial, so emission order is deterministic.
func (c *Collector) ProfileUnit(app, node, unit string, wall time.Duration) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(0, EvProfileUnit)
	c.fStr("app", app)
	c.fStr("node", node)
	c.fStr("unit", unit)
	c.fFloat("wall_ms", float64(wall.Nanoseconds())*1e-6)
	c.end()
}

// --- fault-injection events ----------------------------------------

// RetrainFault emits one injected retraining fault. kind is
// "retrain-slow", "retrain-fail" (attempt counts from 0), "increm-fail",
// or "increm-slow".
func (c *Collector) RetrainFault(ts simtime.Instant, app, node, kind string, attempt int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvRetrainFault)
	c.fStr("app", app)
	c.fStr("node", node)
	c.fStr("kind", kind)
	c.fInt("attempt", int64(attempt))
	c.end()
}

// RetrainAbandon emits one whole-pool retraining given up after its
// retry budget or retraining window ran out — the stale model keeps
// serving (graceful degradation, not a crash).
func (c *Collector) RetrainAbandon(ts simtime.Instant, app, node string, attempts, samples int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvRetrainAbandon)
	c.fStr("app", app)
	c.fStr("node", node)
	c.fInt("attempts", int64(attempts))
	c.fInt("samples", int64(samples))
	c.end()
}

// Degrade emits one session in which a GPU-memory allocation fault
// dropped an app's job to its smallest profiled structures.
func (c *Collector) Degrade(ts simtime.Instant, session int, app string) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvDegrade)
	c.fInt("session", int64(session))
	c.fStr("app", app)
	c.end()
}

// Burst emits one injected arrival burst: factor× arrivals over
// sessions sessions starting at firstSession (period-relative).
func (c *Collector) Burst(ts simtime.Instant, period int, app string, firstSession, sessions, factor int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvBurst)
	c.fInt("period", int64(period))
	c.fStr("app", app)
	c.fInt("first_session", int64(firstSession))
	c.fInt("sessions", int64(sessions))
	c.fInt("factor", int64(factor))
	c.end()
}

// Placement emits one application's GPU assignment (multi-GPU runs
// recompute placement at period boundaries when the load ranking or a
// working set moved; each recomputation emits one event per app).
func (c *Collector) Placement(ts simtime.Instant, period int, app string, gpu int, wsBytes int64, loadRank int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvPlacement)
	c.fInt("period", int64(period))
	c.fStr("app", app)
	c.fInt("gpu", int64(gpu))
	c.fInt("ws_bytes", wsBytes)
	c.fInt("load_rank", int64(loadRank))
	c.end()
}

// GPUCrash emits one injected lane crash; aliveMask is the liveness
// bitmask after the crash.
func (c *Collector) GPUCrash(ts simtime.Instant, period, gpu int, aliveMask uint64) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvGPUCrash)
	c.fInt("period", int64(period))
	c.fInt("gpu", int64(gpu))
	c.fInt("alive_mask", int64(aliveMask))
	c.end()
}

// GPURecover emits one injected lane recovery; aliveMask is the
// liveness bitmask after the recovery.
func (c *Collector) GPURecover(ts simtime.Instant, period, gpu int, aliveMask uint64) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvGPURecover)
	c.fInt("period", int64(period))
	c.fInt("gpu", int64(gpu))
	c.fInt("alive_mask", int64(aliveMask))
	c.end()
}

// Replace emits one failover re-placement over the surviving lanes:
// placed apps were re-packed, unplaced apps fit nowhere and enter the
// degraded-admission state.
func (c *Collector) Replace(ts simtime.Instant, period int, aliveMask uint64, placed, unplaced int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvReplace)
	c.fInt("period", int64(period))
	c.fInt("alive_mask", int64(aliveMask))
	c.fInt("placed", int64(placed))
	c.fInt("unplaced", int64(unplaced))
	c.end()
}

// Admit emits one lane's SLO-feasibility gate outcome for a period:
// fraction is the admitted capacity the plan consumes, shed the
// predicted per-session requests dropped.
func (c *Collector) Admit(ts simtime.Instant, period, gpu int, feasible bool, fraction float64, shed int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvAdmit)
	c.fInt("period", int64(period))
	c.fInt("gpu", int64(gpu))
	c.fBool("feasible", feasible)
	c.fFloat("fraction", fraction)
	c.fInt("shed", int64(shed))
	c.end()
}

// Shed emits requests dropped by admission control in one session.
func (c *Collector) Shed(ts simtime.Instant, session int, app string, requests int) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvShed)
	c.fInt("session", int64(session))
	c.fStr("app", app)
	c.fInt("requests", int64(requests))
	c.end()
}

// EnableGPUCounters sizes the per-GPU busy-time counters for an n-GPU
// run. Until called (single-GPU runs never call it) the counters stay
// nil and Counters emits no per-GPU fields.
func (c *Collector) EnableGPUCounters(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.gpuBusyMs = make([]float64, n)
}

// GPUBusy accumulates fraction × duration of busy time on GPU lane g.
// A no-op unless EnableGPUCounters sized the counters.
func (c *Collector) GPUBusy(g int, busy simtime.Duration, fraction float64) {
	if c == nil || c.gpuBusyMs == nil || g < 0 || g >= len(c.gpuBusyMs) {
		return
	}
	c.gpuBusyMs[g] += float64(busy) * 1e-6 * fraction
}

// GPUBusyMs returns the accumulated busy GPU-milliseconds per lane
// (nil unless EnableGPUCounters was called).
func (c *Collector) GPUBusyMs() []float64 {
	if c == nil {
		return nil
	}
	return c.gpuBusyMs
}

// DriftSpike emits one injected mid-period drift shock.
func (c *Collector) DriftSpike(ts simtime.Instant, period int, app string, intensity float64) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvDriftSpike)
	c.fInt("period", int64(period))
	c.fStr("app", app)
	c.fFloat("intensity", intensity)
	c.end()
}

// PlanningObserve feeds one PlanSession wall-clock duration into the
// planning histogram.
func (c *Collector) PlanningObserve(d time.Duration) {
	if c == nil || c.Planning == nil {
		return
	}
	c.Planning.ObserveMs(float64(d.Nanoseconds()) * 1e-6)
}

// FFCounts returns the fast-forward hit/miss counters.
//
// Deprecated: serving no longer has a fast-forward memo and nothing
// writes these counters, so both are always zero.
func (c *Collector) FFCounts() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.ffHits, c.ffMisses
}

// CacheCounts returns the profile-cache hit/miss counters.
func (c *Collector) CacheCounts() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.cacheHits, c.cacheMisses
}

// Counters emits the running hit/miss counters (the always-zero
// fast-forward pair and the profile cache) as one event.
func (c *Collector) Counters(ts simtime.Instant) {
	if c == nil || c.w == nil {
		return
	}
	c.begin(ts, EvCounters)
	c.fInt("ff_hits", int64(c.ffHits))
	c.fInt("ff_misses", int64(c.ffMisses))
	c.fInt("cache_hits", int64(c.cacheHits))
	c.fInt("cache_misses", int64(c.cacheMisses))
	c.fInt("cache_corrupt", int64(c.cacheCorrupt))
	// Per-GPU busy time, only on multi-GPU runs (EnableGPUCounters):
	// extra fields are schema-legal, and single-GPU traces stay
	// byte-identical.
	for g, ms := range c.gpuBusyMs {
		c.buf = append(c.buf, `,"gpu`...)
		c.buf = strconv.AppendInt(c.buf, int64(g), 10)
		c.buf = append(c.buf, `_busy_ms":`...)
		c.buf = strconv.AppendFloat(c.buf, ms, 'g', -1, 64)
	}
	c.end()
}
