// Package faults is a deterministic, seed-derived fault injector for
// the serving simulation. It perturbs three layers of a run:
//
//   - retraining jobs: whole-pool retraining jobs can slow down or fail
//     and are retried with bounded linear backoff, but a retry is only
//     started when it can still complete inside the §3.3 retraining
//     window — otherwise the job is abandoned and the stale model keeps
//     serving (graceful degradation, same path as a boundary discard);
//     AdaInf's incremental per-session retraining slices can likewise
//     fail (no samples trained) or slow down (fewer samples trained in
//     the same planned slice, so the latency SLO is untouched);
//   - GPU memory: transient allocation failures for a session's planned
//     structures force the job onto the smallest profiled structure of
//     every node with no retraining slice — strictly faster than the
//     planned structures, so latency SLOs hold while accuracy degrades;
//   - workload: arrival bursts multiply a contiguous window of sessions'
//     arrivals before the predictor observes them, and drift spikes
//     shock the live label/feature distribution right after a period
//     boundary so the freshly collected pool lags reality;
//   - GPU lanes: on a sharded server a whole lane can crash at a period
//     boundary (gpu-crash) and later return (gpu-recover); the runtime
//     re-packs the surviving lanes and admission-controls the load that
//     no longer fits (see internal/cluster and internal/admit).
//
// Every decision is a pure hash of (seed, fault kind, stable
// coordinates such as period/session/app/node) — no shared RNG stream
// is consumed — so injection at a fixed seed is byte-identical across
// repeats and worker counts.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"adainf/internal/simtime"
)

// Config enables and parameterizes fault injection. The zero value
// disables every fault; probabilities are per decision point.
type Config struct {
	// Seed derives every injection decision (independent of the
	// simulation seed, so the same workload can be replayed under
	// different fault schedules).
	Seed int64

	// RetrainFail is the per-attempt failure probability of an edge
	// whole-pool retraining job and the per-slice failure probability
	// of an incremental retraining slice.
	RetrainFail float64
	// RetrainSlow is the probability that a whole-pool retraining job
	// runs RetrainSlowFactor× longer, or that an incremental slice
	// trains 1/RetrainSlowFactor of its samples in the planned time.
	RetrainSlow float64
	// RetrainSlowFactor is the slowdown multiplier (default 2).
	RetrainSlowFactor float64
	// MaxRetries bounds the retry attempts after a whole-pool
	// retraining failure (default 2).
	MaxRetries int
	// RetryBackoff is the linear backoff before a retry starts
	// (default 2s).
	RetryBackoff simtime.Duration

	// MemFail is the per-(session, app) probability of a transient GPU
	// memory allocation failure, degrading the job to the smallest
	// profiled structures with no retraining slice.
	MemFail float64

	// Burst is the per-(period, app) probability of an arrival burst:
	// a hash-placed window of BurstSessions sessions whose arrivals are
	// multiplied by BurstFactor (defaults 200 sessions, 3×; at most
	// MaxBurstFactor).
	Burst         float64
	BurstFactor   int
	BurstSessions int

	// DriftSpike is the per-(period, app) probability of an abrupt
	// distribution shock at the period boundary; SpikeIntensity in
	// (0,1] is the mixing weight toward the shocked class (default 0.5).
	DriftSpike     float64
	SpikeIntensity float64

	// GPUCrash is the per-(period, lane) probability that a healthy GPU
	// lane dies at the period boundary. The last surviving lane never
	// crashes: the server degrades, it does not vanish.
	GPUCrash float64
	// GPURecover is the per-(period, lane) probability that a dead lane
	// returns at the period boundary.
	GPURecover float64
	// GPUCrashAfter is the first period at which crashes may fire
	// (default 1, so the healthy placement exists before the first
	// failure).
	GPUCrashAfter int
	// GPUCrashMax caps the number of simultaneously dead lanes
	// (0 = no cap beyond keeping one lane alive).
	GPUCrashMax int
}

// Enabled reports whether any fault can fire.
func (c *Config) Enabled() bool {
	return c != nil && (c.RetrainFail > 0 || c.RetrainSlow > 0 ||
		c.MemFail > 0 || c.Burst > 0 || c.DriftSpike > 0 || c.GPUCrash > 0)
}

// GPUFaults reports whether lane crashes can fire.
func (c *Config) GPUFaults() bool {
	return c != nil && c.GPUCrash > 0
}

// withDefaults returns c with unset shape parameters (factors, bounds,
// windows) filled in. Probabilities are never defaulted: what can fire
// is exactly what the caller asked for.
func (c Config) withDefaults() Config {
	if c.RetrainSlowFactor == 0 {
		c.RetrainSlowFactor = 2
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = simtime.Duration(2 * time.Second)
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = 3
	}
	if c.BurstSessions == 0 {
		c.BurstSessions = 200
	}
	if c.SpikeIntensity == 0 {
		c.SpikeIntensity = 0.5
	}
	if c.GPUCrash > 0 && c.GPUCrashAfter == 0 {
		c.GPUCrashAfter = 1
	}
	return c
}

// MaxBurstFactor bounds Config.BurstFactor: a flash crowd a thousand
// times the base rate is far past the paper-scale 3× and still keeps a
// burst session's arrivals countable.
const MaxBurstFactor = 1000

// Validate rejects out-of-range parameters.
func (c *Config) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s probability %g out of [0,1]", name, p)
		}
		return nil
	}
	for _, pc := range []struct {
		name string
		p    float64
	}{
		{"retrain-fail", c.RetrainFail},
		{"retrain-slow", c.RetrainSlow},
		{"mem-fail", c.MemFail},
		{"burst", c.Burst},
		{"drift-spike", c.DriftSpike},
		{"gpu-crash", c.GPUCrash},
		{"gpu-recover", c.GPURecover},
	} {
		if err := check(pc.name, pc.p); err != nil {
			return err
		}
	}
	if c.RetrainSlowFactor < 0 || (c.RetrainSlowFactor != 0 && c.RetrainSlowFactor < 1) {
		return fmt.Errorf("faults: slow-factor %g must be ≥ 1", c.RetrainSlowFactor)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("faults: retries %d negative", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("faults: backoff %v negative", c.RetryBackoff)
	}
	if c.BurstFactor < 0 || c.BurstFactor > MaxBurstFactor {
		return fmt.Errorf("faults: burst-factor %d out of [0,%d]", c.BurstFactor, MaxBurstFactor)
	}
	if c.BurstSessions < 0 {
		return fmt.Errorf("faults: burst-sessions %d negative", c.BurstSessions)
	}
	if c.SpikeIntensity < 0 || c.SpikeIntensity > 1 {
		return fmt.Errorf("faults: spike-intensity %g out of [0,1]", c.SpikeIntensity)
	}
	if c.GPUCrashAfter < 0 {
		return fmt.Errorf("faults: gpu-crash-after %d negative", c.GPUCrashAfter)
	}
	if c.GPUCrashMax < 0 {
		return fmt.Errorf("faults: gpu-crash-max %d negative", c.GPUCrashMax)
	}
	return nil
}

// Default is a representative mixed fault schedule: moderate pressure
// on every layer, suitable for `-faults default` quickstarts and the
// resilience artifact.
func Default() Config {
	return Config{
		RetrainFail: 0.25,
		RetrainSlow: 0.25,
		MemFail:     0.05,
		Burst:       0.3,
		DriftSpike:  0.3,
	}
}

// Parse decodes a textual fault schedule of comma-separated key=value
// pairs, e.g. "retrain-fail=0.3,mem-fail=0.1,burst=0.5,backoff=1s".
// The empty spec disables injection; the spec "default" is the
// Default schedule. Keys: retrain-fail, retrain-slow, slow-factor,
// retries, backoff, mem-fail, burst, burst-factor, burst-sessions,
// drift-spike, spike-intensity, gpu-crash, gpu-recover,
// gpu-crash-after, gpu-crash-max.
func Parse(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	switch spec {
	case "":
		return c, nil
	case "default":
		return Default(), nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "retrain-fail":
			c.RetrainFail, err = parseProb(val)
		case "retrain-slow":
			c.RetrainSlow, err = parseProb(val)
		case "slow-factor":
			c.RetrainSlowFactor, err = strconv.ParseFloat(val, 64)
		case "retries":
			c.MaxRetries, err = strconv.Atoi(val)
		case "backoff":
			var d time.Duration
			d, err = time.ParseDuration(val)
			c.RetryBackoff = simtime.Duration(d)
		case "mem-fail":
			c.MemFail, err = parseProb(val)
		case "burst":
			c.Burst, err = parseProb(val)
		case "burst-factor":
			c.BurstFactor, err = strconv.Atoi(val)
		case "burst-sessions":
			c.BurstSessions, err = strconv.Atoi(val)
		case "drift-spike":
			c.DriftSpike, err = parseProb(val)
		case "spike-intensity":
			c.SpikeIntensity, err = strconv.ParseFloat(val, 64)
		case "gpu-crash":
			c.GPUCrash, err = parseProb(val)
		case "gpu-recover":
			c.GPURecover, err = parseProb(val)
		case "gpu-crash-after":
			c.GPUCrashAfter, err = strconv.Atoi(val)
		case "gpu-crash-max":
			c.GPUCrashMax, err = strconv.Atoi(val)
		default:
			return Config{}, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("faults: %s: %v", key, err)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g out of [0,1]", p)
	}
	return p, nil
}

// String renders the config as a spec Parse accepts, emitting only the
// fields that differ from the zero value so Parse(c.String()) == c.
func (c Config) String() string {
	var parts []string
	addF := func(key string, v float64) {
		if v != 0 {
			parts = append(parts, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	addI := func(key string, v int) {
		if v != 0 {
			parts = append(parts, key+"="+strconv.Itoa(v))
		}
	}
	addF("retrain-fail", c.RetrainFail)
	addF("retrain-slow", c.RetrainSlow)
	addF("slow-factor", c.RetrainSlowFactor)
	addI("retries", c.MaxRetries)
	if c.RetryBackoff != 0 {
		parts = append(parts, "backoff="+time.Duration(c.RetryBackoff).String())
	}
	addF("mem-fail", c.MemFail)
	addF("burst", c.Burst)
	addI("burst-factor", c.BurstFactor)
	addI("burst-sessions", c.BurstSessions)
	addF("drift-spike", c.DriftSpike)
	addF("spike-intensity", c.SpikeIntensity)
	addF("gpu-crash", c.GPUCrash)
	addF("gpu-recover", c.GPURecover)
	addI("gpu-crash-after", c.GPUCrashAfter)
	addI("gpu-crash-max", c.GPUCrashMax)
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Injector answers fault decisions. Every method is a pure function of
// the config and its arguments: calling it in any order, any number of
// times, from any goroutine yields the same answers.
type Injector struct {
	cfg Config
}

// New returns an injector for the config, or nil when no fault can
// fire (callers treat a nil injector as "faults off").
func New(cfg *Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaults-filled) configuration.
func (in *Injector) Config() Config { return in.cfg }

// hash is an incrementally built FNV-1a word with a final avalanche;
// the value type keeps decision derivation allocation-free.
type hash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h hash) str(s string) hash {
	for i := 0; i < len(s); i++ {
		h ^= hash(s[i])
		h *= fnvPrime
	}
	// Separator so ("ab","c") and ("a","bc") differ.
	h ^= 0xff
	h *= fnvPrime
	return h
}

func (h hash) i64(v int64) hash {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= hash(u & 0xff)
		h *= fnvPrime
		u >>= 8
	}
	return h
}

// u64 finalizes with a splitmix64-style avalanche: FNV alone keeps
// low-entropy integer coordinates correlated in the high bits.
func (h hash) u64() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// u01 maps the avalanched word to a uniform float64 in [0,1).
func (h hash) u01() float64 {
	return float64(h.u64()>>11) * 0x1p-53
}

func (in *Injector) hash(kind string) hash {
	return hash(fnvOffset).i64(in.cfg.Seed).str(kind)
}

// RetrainAttempt is one execution of a whole-pool retraining job under
// faults; failed attempts occupy the GPU for their full busy window and
// then discard their progress.
type RetrainAttempt struct {
	Start      simtime.Instant
	Completion simtime.Instant
	Failed     bool
}

// RetrainFate is the faulted outcome of one planned whole-pool
// retraining job.
type RetrainFate struct {
	// Attempts lists every attempt that actually ran, chronologically.
	Attempts []RetrainAttempt
	// Completion and Busy describe the successful attempt; only
	// meaningful when !Abandoned.
	Completion simtime.Instant
	Busy       simtime.Duration
	// Slowed marks a RetrainSlowFactor× stretched job.
	Slowed bool
	// Abandoned means the job never completed: either every retry
	// failed, or the next retry could not finish inside the retraining
	// window; the stale model keeps serving.
	Abandoned bool
}

// RetrainFate rolls the fate of the planned whole-pool retraining job
// identified by (period, planIdx) for app/node, with baseline
// completion instant and busy duration, bounded by the retraining
// window end. Jobs without GPU busy time (cloud retrains) pass through
// untouched.
func (in *Injector) RetrainFate(period, planIdx int, app, node string,
	completion simtime.Instant, busy simtime.Duration, windowEnd simtime.Instant) RetrainFate {

	f := RetrainFate{Completion: completion, Busy: busy}
	if busy <= 0 {
		return f
	}
	if in.hash("retrain-slow").str(app).str(node).i64(int64(period)).i64(int64(planIdx)).u01() < in.cfg.RetrainSlow {
		f.Slowed = true
		extra := simtime.Duration(float64(busy) * (in.cfg.RetrainSlowFactor - 1))
		f.Busy = busy + extra
		f.Completion = completion.Add(extra)
	}
	comp := f.Completion
	for attempt := 0; ; attempt++ {
		failed := in.hash("retrain-fail").str(app).str(node).
			i64(int64(period)).i64(int64(planIdx)).i64(int64(attempt)).u01() < in.cfg.RetrainFail
		f.Attempts = append(f.Attempts, RetrainAttempt{
			Start: comp.Add(-f.Busy), Completion: comp, Failed: failed,
		})
		if !failed {
			f.Completion = comp
			return f
		}
		if attempt >= in.cfg.MaxRetries {
			f.Abandoned = true
			return f
		}
		next := comp.Add(in.cfg.RetryBackoff).Add(f.Busy)
		if next.After(windowEnd) {
			// The retry cannot complete inside the retraining window:
			// give up rather than burn GPU time on a result the next
			// period would discard (§3.3 window SLO).
			f.Abandoned = true
			return f
		}
		comp = next
	}
}

// IncrementalRetrain rolls the fate of an AdaInf incremental
// retraining slice in session si for app/node: fail discards the
// slice's samples, slow trains 1/RetrainSlowFactor of them. The
// planned slice latency is unchanged either way, so the session's
// latency SLO is never violated.
func (in *Injector) IncrementalRetrain(si int, app, node string) (fail, slow bool) {
	if in.cfg.RetrainFail > 0 {
		fail = in.hash("increm-fail").str(app).str(node).i64(int64(si)).u01() < in.cfg.RetrainFail
	}
	if !fail && in.cfg.RetrainSlow > 0 {
		slow = in.hash("increm-slow").str(app).str(node).i64(int64(si)).u01() < in.cfg.RetrainSlow
	}
	return fail, slow
}

// MemFail rolls a transient GPU memory allocation failure for the
// app's job in session si on GPU lane gpu: the failure is a property of
// the lane actually serving the app, so lanes other than 0 mix the lane
// into the roll. Lane 0 keeps the lane-free hash every single-GPU fault
// schedule was recorded under.
func (in *Injector) MemFail(si int, app string, gpu int) bool {
	if in.cfg.MemFail <= 0 {
		return false
	}
	h := in.hash("mem-fail").str(app).i64(int64(si))
	if gpu != 0 {
		h = h.i64(int64(gpu))
	}
	return h.u01() < in.cfg.MemFail
}

// Burst describes one arrival burst: sessions [Start, End) of the
// period see their arrivals multiplied by Factor.
type Burst struct {
	Start, End int
	Factor     int
}

// BurstFor rolls whether (period, app) sees an arrival burst and
// hash-places its window among the period's sessions.
func (in *Injector) BurstFor(period int, app string, sessionsPerPeriod int) (Burst, bool) {
	if in.cfg.Burst <= 0 || sessionsPerPeriod <= 0 {
		return Burst{}, false
	}
	h := in.hash("burst").str(app).i64(int64(period))
	if h.u01() >= in.cfg.Burst {
		return Burst{}, false
	}
	n := in.cfg.BurstSessions
	if n > sessionsPerPeriod {
		n = sessionsPerPeriod
	}
	start := int(in.hash("burst-at").str(app).i64(int64(period)).u64() % uint64(sessionsPerPeriod-n+1))
	return Burst{Start: start, End: start + n, Factor: in.cfg.BurstFactor}, true
}

// DriftSpike rolls whether (period, app) is shocked at the boundary;
// the returned seed derives the shock's internal randomness (class
// choice, per-node generators) and intensity is the mixing weight.
func (in *Injector) DriftSpike(period int, app string) (seed int64, intensity float64, ok bool) {
	if in.cfg.DriftSpike <= 0 {
		return 0, 0, false
	}
	h := in.hash("drift-spike").str(app).i64(int64(period))
	if h.u01() >= in.cfg.DriftSpike {
		return 0, 0, false
	}
	return int64(in.hash("drift-spike-seed").str(app).i64(int64(period)).u64() >> 1), in.cfg.SpikeIntensity, true
}

// laneCrash rolls whether the (healthy) lane dies at the boundary of
// the period.
func (in *Injector) laneCrash(period, lane int) bool {
	return in.cfg.GPUCrash > 0 && period >= in.cfg.GPUCrashAfter &&
		in.hash("gpu-crash").i64(int64(period)).i64(int64(lane)).u01() < in.cfg.GPUCrash
}

// laneRecover rolls whether the (dead) lane returns at the boundary of
// the period.
func (in *Injector) laneRecover(period, lane int) bool {
	return in.cfg.GPURecover > 0 &&
		in.hash("gpu-recover").i64(int64(period)).i64(int64(lane)).u01() < in.cfg.GPURecover
}

// LaneEvents evolves the lane-alive bitmask at the boundary of the
// period: dead lanes roll recovery first, then healthy lanes roll
// crashes, both in lane order. A crash never kills the last alive lane
// and never exceeds GPUCrashMax simultaneously dead lanes. The returned
// crashed/recovered slices list the lanes that changed state this
// boundary, in lane order (nil when nothing changed). Like every other
// decision the evolution is a pure function of (seed, period, lane), so
// replaying the boundaries in order reproduces the mask bit for bit.
func (in *Injector) LaneEvents(period, nLanes int, alive uint64) (uint64, []int, []int) {
	if in.cfg.GPUCrash <= 0 || nLanes <= 1 {
		return alive, nil, nil
	}
	var crashed, recovered []int
	for g := 0; g < nLanes; g++ {
		if alive&(1<<uint(g)) == 0 && in.laneRecover(period, g) {
			alive |= 1 << uint(g)
			recovered = append(recovered, g)
		}
	}
	nAlive := 0
	for g := 0; g < nLanes; g++ {
		if alive&(1<<uint(g)) != 0 {
			nAlive++
		}
	}
	maxDead := nLanes - 1
	if in.cfg.GPUCrashMax > 0 && in.cfg.GPUCrashMax < maxDead {
		maxDead = in.cfg.GPUCrashMax
	}
	for g := 0; g < nLanes; g++ {
		if nAlive <= 1 || nLanes-nAlive >= maxDead {
			break
		}
		if alive&(1<<uint(g)) != 0 && in.laneCrash(period, g) {
			alive &^= 1 << uint(g)
			crashed = append(crashed, g)
			nAlive--
		}
	}
	return alive, crashed, recovered
}
