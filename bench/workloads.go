package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"adainf/internal/app"
	"adainf/internal/baselines"
	"adainf/internal/core"
	"adainf/internal/faults"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/sched"
	"adainf/internal/serving"
	"adainf/internal/simtime"
)

// memConfig is one §3.4 memory behaviour a workload profiles under.
// Each needs its own offline profiles, so it is the unit of set-up work.
type memConfig struct {
	name     string
	strategy gpu.Strategy
	policy   func() gpumem.Policy
}

var (
	memAda = memConfig{"ada", gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }}
	memM1 = memConfig{"m1", gpu.Strategy{MaximizeUsage: false},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }}
	memM2 = memConfig{"m2", gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.LRUPolicy{} }}
	allMems = []memConfig{memAda, memM1, memM2}
)

// method is a scheduling method under test: a fresh scheduler per run,
// because schedulers carry per-period state.
type method struct {
	label     string
	family    string // "core" (AdaInf and its variants) or "baselines"
	build     func() sched.Method
	divergent bool
	mem       memConfig
}

func adaVariant(label string, o core.Options, mem memConfig) method {
	o.Label = label
	if label == "AdaInf" {
		o.Label = ""
	}
	return method{label: label, family: "core", divergent: true, mem: mem,
		build: func() sched.Method { return core.New(o) }}
}

var (
	adaInf   = adaVariant("AdaInf", core.Options{}, memAda)
	ekya     = method{label: "Ekya", family: "baselines", mem: memAda, build: func() sched.Method { return baselines.NewEkya() }}
	scrooge  = method{label: "Scrooge", family: "baselines", mem: memAda, build: func() sched.Method { return baselines.NewScrooge(false) }}
	scroogeS = method{label: "Scrooge*", family: "baselines", mem: memAda, build: func() sched.Method { return baselines.NewScrooge(true) }}
)

// arm is one serving simulation of a workload.
type arm struct {
	m     method
	apps  []*app.App
	gpus  float64
	ngpus int
}

// workload is one benchmark input: a fixed set of arms at a fixed
// scale. The seed is the only input the caller varies.
type workload struct {
	name    string
	arms    []arm
	horizon simtime.Duration
	rate    float64
	pool    int
	faults  string
}

// failoverFaults exercises every fault kind, lane crashes included.
const failoverFaults = "retrain-fail=0.25,retrain-slow=0.25,mem-fail=0.05,burst=0.3,drift-spike=0.3," +
	"gpu-crash=0.3,gpu-recover=0.3,gpu-crash-max=2,gpu-crash-after=2"

// workloads returns the benchmark's workloads in their fixed order.
// Each call builds fresh app values, so runs never share mutable state.
func workloads() []workload {
	cat := app.Catalog()
	one := []*app.App{app.VideoSurveillance()}
	armsOf := func(apps []*app.App, gpus float64, ngpus int, ms ...method) []arm {
		out := make([]arm, len(ms))
		for i, m := range ms {
			out[i] = arm{m: m, apps: apps, gpus: gpus, ngpus: ngpus}
		}
		return out
	}
	return []workload{
		// Horizons are sized so a 10 s run holds several timed passes.
		{
			name:    "adainf-8app",
			arms:    armsOf(cat, 4, 1, adaInf),
			horizon: 500 * time.Second, rate: 250, pool: 8000,
		},
		{
			name:    "adainf-1app-ff",
			arms:    append(armsOf(one, 1, 1, adaInf), armsOf(one, 4, 1, adaInf)...),
			horizon: 1000 * time.Second, rate: 250, pool: 8000,
		},
		{
			name:    "baselines-8app",
			arms:    armsOf(cat, 4, 1, ekya, scrooge, scroogeS),
			horizon: 500 * time.Second, rate: 250, pool: 8000,
		},
		{
			name: "failover-4lane",
			arms: armsOf(cat, 4, 4, adaInf, ekya, scrooge),
			// 200 s is four periods, and lanes may crash from the third
			// on; a 10 s run still holds three timed passes.
			horizon: 200 * time.Second, rate: 250, pool: 8000,
			faults: failoverFaults,
		},
		{
			name: "cold-ablation",
			arms: armsOf(cat, 4, 1,
				adaInf,
				adaVariant("AdaInf/I", core.Options{EqualRetrainSplit: true}, memAda),
				adaVariant("AdaInf/U", core.Options{NoDAGUpdate: true}, memAda),
				adaVariant("AdaInf/S", core.Options{EqualSpaceSplit: true}, memAda),
				adaVariant("AdaInf/E", core.Options{FullStructureOnly: true}, memAda),
				adaVariant("AdaInf/M1", core.Options{}, memM1),
				adaVariant("AdaInf/M2", core.Options{}, memM2),
			),
			horizon: 150 * time.Second, rate: 150, pool: 2000,
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// mems returns the memory configurations the workload's arms use, in
// allMems order.
func (w *workload) mems() []memConfig {
	var out []memConfig
	for _, mc := range allMems {
		for _, a := range w.arms {
			if a.m.mem.name == mc.name {
				out = append(out, mc)
				break
			}
		}
	}
	return out
}

// apps returns the union of the arms' applications, first appearance
// first: the set every memory configuration profiles.
func (w *workload) apps() []*app.App {
	seen := map[string]bool{}
	var out []*app.App
	for _, a := range w.arms {
		for _, ap := range a.apps {
			if !seen[ap.Name] {
				seen[ap.Name] = true
				out = append(out, ap)
			}
		}
	}
	return out
}

// faultConfig parses the workload's fault schedule, seeded with the
// benchmark seed; nil when the workload injects no faults.
func (w *workload) faultConfig(seed int64) (*faults.Config, error) {
	if w.faults == "" {
		return nil, nil
	}
	fc, err := faults.Parse(w.faults)
	if err != nil {
		return nil, err
	}
	fc.Seed = seed
	return &fc, nil
}

// armSeed derives an arm's simulation seed from the benchmark seed and
// the arm's application set, so methods run on the same apps see the
// same trace (paired comparisons, as the experiment engine does).
func armSeed(base int64, apps []*app.App) int64 {
	h := fnv.New64a()
	for _, ap := range apps {
		h.Write([]byte(ap.Name + ":" + ap.SLO.String()))
		for _, n := range ap.Nodes {
			h.Write([]byte("," + n.Name + "/" + n.Model + "@" + strconv.FormatFloat(n.AccThreshold, 'g', -1, 64)))
		}
	}
	s := int64(h.Sum64() ^ uint64(base)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = base | 1
	}
	return s
}

// config returns the serving configuration of one arm run. The caller
// sets Method (possibly wrapped), Telemetry and AuditReport.
func (w *workload) config(a *arm, seed int64, profiles profileSet, fc *faults.Config) serving.Config {
	return serving.Config{
		Apps:               a.apps,
		GPUs:               a.gpus,
		NGPUs:              a.ngpus,
		Horizon:            w.horizon,
		Seed:               armSeed(seed, a.apps),
		RatePerApp:         w.rate,
		Retraining:         true,
		DivergentSelection: a.m.divergent,
		MemStrategy:        a.m.mem.strategy,
		NewPolicy:          a.m.mem.policy,
		PoolSamples:        w.pool,
		Profiles:           profiles[a.m.mem.name],
		Faults:             fc,
	}
}

// sessions is the number of simulated work sessions of one arm run.
func (w *workload) sessions() int {
	return int(w.horizon / simtime.NewClock().Session)
}
