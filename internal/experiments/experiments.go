// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 experimental analysis and §5 performance evaluation).
// Each Fig*/Table* function is a self-contained runner that returns a
// Result of labelled series and tables; cmd/repro renders them and
// bench_test.go wraps them as benchmarks.
//
// The experiment index, the workload behind each artifact, and the
// expected shapes are catalogued in DESIGN.md; measured-vs-paper
// outcomes are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"adainf/internal/app"
	"adainf/internal/faults"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/serving"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// Options tunes experiment scale. The zero value reproduces the default
// setup: 10 periods (500 s), 8 applications, 4 GPUs, 250 req/s per app.
type Options struct {
	// Seed drives all randomness. Each simulation arm derives its own
	// seed from this and the arm's configuration (see runner.go), so
	// sweep points are statistically independent yet reproducible.
	Seed int64
	// Horizon is the serving duration; zero defaults to 500 s.
	Horizon simtime.Duration
	// Rate is the mean request rate per application; zero → 250 req/s.
	Rate float64
	// Quick shrinks runs for benchmarks (3 periods, lower rate).
	Quick bool
	// Workers bounds the experiment engine's worker pool: 0 uses one
	// worker per available CPU, 1 forces sequential execution. Output
	// is identical for every value (see runner.go).
	Workers int
	// Progress, when non-nil, receives one event per completed
	// simulation arm. Called from worker goroutines; must be
	// concurrency-safe.
	Progress func(ProgressEvent)
	// ProfileCache is a directory holding cached offline profiles
	// (profile.BuildAppProfileCached). Empty profiles from scratch.
	ProfileCache string
	// Audit runs every simulation arm (and any profile build an arm
	// triggers) under the runtime invariant auditor in fail-fast mode:
	// the first violation fails the artifact. Metrics are bit-identical
	// with auditing on (the auditor is read-only).
	Audit bool
	// Hist collects per-arm latency histograms (internal/telemetry):
	// each arm's serving result carries p50/p90/p99/p99.9 summaries of
	// inference, retraining, and queueing delay, and artifacts with
	// latency tables gain tail-percentile columns. Metrics are
	// bit-identical with histograms on (telemetry is read-only).
	Hist bool
	// TraceDir, when non-empty, writes one JSONL decision trace per
	// unique simulation arm into the directory, named
	// <artifact>-<arm>-<confighash>.jsonl (validate or convert with
	// cmd/tracecheck). Like Audit and Hist, tracing never perturbs the
	// simulation.
	TraceDir string
	// Faults, when non-nil with any probability set, runs every
	// simulation arm under the deterministic fault injector
	// (serving.Config.Faults). The fault configuration joins each arm's
	// dedup key, and the Resilience artifact sweeps scenarios built
	// from it.
	Faults *faults.Config
	// NGPUs shards every simulation arm's server into that many GPU
	// lanes (serving.Config.NGPUs); 0 or 1 is the single shared
	// partition. The Scaling artifact sweeps it per arm.
	NGPUs int

	// pool is the per-node retraining pool, set by fill: 2000 when
	// Quick, else 8000.
	pool int
	// tracePath is the resolved per-arm trace file, set by runArms.
	tracePath string
}

// ProgressEvent reports one completed simulation arm.
type ProgressEvent struct {
	// Artifact is the artifact being regenerated (e.g. "fig18").
	Artifact string
	// Arm names the completed arm (method, app count, GPU count).
	Arm string
	// Done and Total count unique simulation arms of the artifact.
	Done, Total int
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	// Quick defaults apply only to knobs the caller left at zero, so a
	// test can run a quick sweep at an even shorter horizon.
	if o.Quick {
		if o.Horizon == 0 {
			o.Horizon = 150 * time.Second
		}
		if o.Rate == 0 {
			o.Rate = 150
		}
	}
	if o.Horizon == 0 {
		o.Horizon = 500 * time.Second
	}
	if o.Rate == 0 {
		o.Rate = 250
	}
	o.pool = 8000
	if o.Quick {
		o.pool = 2000
	}
}

// Series is one labelled data series of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Table is one rendered table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Result is a reproduced artifact.
type Result struct {
	ID     string
	Title  string
	Series []Series
	Tables []Table
	Notes  []string
}

// Render writes a plain-text rendering of the result.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, tb := range r.Tables {
		if tb.Title != "" {
			fmt.Fprintf(w, "-- %s --\n", tb.Title)
		}
		widths := make([]int, len(tb.Header))
		for i, h := range tb.Header {
			widths[i] = len(h)
		}
		for _, row := range tb.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				parts[i] = pad(c, widths[i])
			}
			fmt.Fprintln(w, strings.Join(parts, "  "))
		}
		line(tb.Header)
		for _, row := range tb.Rows {
			line(row)
		}
		fmt.Fprintln(w)
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "series %q (%d points)\n", s.Label, len(s.Y))
		n := len(s.Y)
		step := 1
		if n > 12 {
			step = n / 12
		}
		for i := 0; i < n; i += step {
			fmt.Fprintf(w, "  x=%-10.4g y=%.4g\n", s.X[i], s.Y[i])
		}
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// memoryConfig bundles the §3.4 memory behaviour of a method variant.
type memoryConfig struct {
	name     string
	strategy gpu.Strategy
	policy   func() gpumem.Policy
}

func adaMemory(alpha float64) memoryConfig {
	return memoryConfig{
		name:     fmt.Sprintf("ada-a%.2f", alpha),
		strategy: gpu.Strategy{MaximizeUsage: true},
		policy:   func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: alpha} },
	}
}

func m1Memory() memoryConfig {
	return memoryConfig{
		name:     "m1",
		strategy: gpu.Strategy{MaximizeUsage: false},
		policy:   func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} },
	}
}

func m2Memory() memoryConfig {
	return memoryConfig{
		name:     "m2",
		strategy: gpu.Strategy{MaximizeUsage: true},
		policy:   func() gpumem.Policy { return gpumem.LRUPolicy{} },
	}
}

// profileCache shares built profiles across experiments: the offline
// profiling of §3.3 happens once per memory configuration. Entries are
// single-flight so concurrent arms needing the same profiles build them
// exactly once and share the (read-only) result.
var profileCache sync.Map // key string -> *profileEntry

type profileEntry struct {
	once sync.Once
	p    map[string]*profile.AppProfile
	err  error
}

// profilesFor builds (or reuses) the profiles for one memory
// configuration. The first caller builds them; concurrent arms asking
// for the same key wait for that build and share its result.
func profilesFor(apps []*app.App, mem memoryConfig, cacheDir string, audit bool) (map[string]*profile.AppProfile, error) {
	key := mem.name + "|" + appSetKey(apps)
	if audit {
		// Audited builds run extra (behaviour-preserving) checks; keep
		// them distinct so an unaudited entry doesn't satisfy an
		// audited request.
		key = "audit|" + key
	}
	v, _ := profileCache.LoadOrStore(key, &profileEntry{})
	e := v.(*profileEntry)
	e.once.Do(func() {
		e.p, e.err = serving.BuildProfilesWith(apps, mem.strategy, mem.policy, serving.ProfileBuildOptions{
			CacheDir: cacheDir,
			Audit:    audit,
		})
	})
	return e.p, e.err
}

// run executes one serving simulation with the standard knobs. The
// profiles come from the cross-arm single-flight cache and so are never
// traced here; per-arm telemetry covers the serving run itself.
func run(o Options, apps []*app.App, m sched.Method, gpus float64,
	retrain, divergent bool, mem memoryConfig) (*serving.Result, error) {

	profs, err := profilesFor(apps, mem, o.ProfileCache, o.Audit)
	if err != nil {
		return nil, err
	}
	var (
		tel *telemetry.Collector
		f   *os.File
	)
	if o.Hist || o.tracePath != "" {
		topt := telemetry.Options{Hist: o.Hist}
		if o.tracePath != "" {
			if f, err = os.Create(o.tracePath); err != nil {
				return nil, err
			}
			topt.Trace = f
		}
		tel = telemetry.New(topt)
	}
	res, err := serving.Run(serving.Config{
		Apps:               apps,
		Method:             m,
		GPUs:               gpus,
		NGPUs:              o.NGPUs,
		Horizon:            o.Horizon,
		Seed:               o.Seed,
		RatePerApp:         o.Rate,
		Retraining:         retrain,
		DivergentSelection: divergent,
		MemStrategy:        mem.strategy,
		NewPolicy:          mem.policy,
		PoolSamples:        o.pool,
		Profiles:           profs,
		Audit:              o.Audit,
		Telemetry:          tel,
		Faults:             o.Faults,
	})
	if cerr := tel.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("telemetry trace: %w", cerr)
	}
	if f != nil {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
