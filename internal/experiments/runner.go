// The parallel experiment engine. Every macro artifact is a set of
// independent simulation arms (method variants × app-count sweep points
// × GPU-count sweep points × parameter sweep points); the engine fans
// them out over internal/par's bounded worker pool and collects results
// in arm order, so the rendered artifact is bit-identical whether the
// arms ran sequentially or on every core of the machine.
//
// Determinism comes from construction, not from luck:
//
//   - each arm's seed is derived from the experiment seed and the arm's
//     configuration key (method, memory config, apps, GPUs) — never
//     from worker identity or scheduling order;
//   - arms share no mutable state (profiles are read-only after build,
//     and the profile cache is a single-flight sync.Map);
//   - results land in a slice indexed by arm position.
//
// Arms with identical configuration keys necessarily produce identical
// results (same seed, same inputs), so the engine runs each unique
// configuration once and shares the result — e.g. Fig. 18's
// "8 applications" sweep point is the same simulation as its
// "4 GPUs" sweep point and its time-series panel.
package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"adainf/internal/app"
	"adainf/internal/par"
	"adainf/internal/serving"
)

// arm is one independent serving simulation of an artifact.
type arm struct {
	m    method
	apps []*app.App
	gpus float64
	// ngpus > 0 shards the arm's server into GPU lanes
	// (Options.NGPUs); 0 inherits the artifact options.
	ngpus int
}

// configKey identifies the arm's simulation configuration. Arms with
// equal keys run identical simulations (the derived seed is a function
// of a subset of the key), so the engine may share one result.
func (a *arm) configKey() string {
	var sb strings.Builder
	sb.WriteString(a.m.label)
	sb.WriteByte('|')
	sb.WriteString(a.m.mem.name)
	if a.m.retrain {
		sb.WriteString("|retrain")
	}
	if a.m.divergent {
		sb.WriteString("|divergent")
	}
	sb.WriteString("|gpus=")
	sb.WriteString(strconv.FormatFloat(a.gpus, 'g', -1, 64))
	if a.ngpus > 1 {
		// Only sharded arms extend the key: every pre-existing
		// configuration keeps its exact key (and trace filename).
		sb.WriteString("|ngpus=")
		sb.WriteString(strconv.Itoa(a.ngpus))
	}
	sb.WriteByte('|')
	a.writeWorkload(&sb)
	return sb.String()
}

// workloadKey identifies the arm's workload: the applications and
// their configuration, which is exactly what the serving seed drives
// (request arrivals, drift streams, probe sampling). The arm's seed is
// derived from this key rather than the full configKey so that
// different *methods* evaluated on the same workload see the identical
// trace — paired comparisons, as in the paper — while different sweep
// points get statistically independent randomness.
func (a *arm) workloadKey() string {
	var sb strings.Builder
	a.writeWorkload(&sb)
	return sb.String()
}

func (a *arm) writeWorkload(sb *strings.Builder) {
	for _, ap := range a.apps {
		sb.WriteByte('|')
		sb.WriteString(ap.Name)
		sb.WriteByte(':')
		sb.WriteString(ap.SLO.String())
		for i := range ap.Nodes {
			n := &ap.Nodes[i]
			sb.WriteByte(',')
			sb.WriteString(n.Name)
			sb.WriteByte('/')
			sb.WriteString(n.Model)
			sb.WriteByte('@')
			sb.WriteString(strconv.FormatFloat(n.AccThreshold, 'g', -1, 64))
		}
	}
}

// armSeed derives the arm's seed from the experiment seed and the
// arm's workload key. The derivation is a pure function of its inputs,
// so it does not depend on worker count or execution order.
func armSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	const golden = uint64(0x9e3779b97f4a7c15)
	s := int64(h.Sum64() ^ (uint64(base) * golden))
	if s == 0 {
		s = base | 1
	}
	return s
}

// workerCount resolves the Options.Workers knob: 0 means one worker
// per available CPU, 1 forces the sequential path.
func workerCount(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// collect runs the jobs on par.Units workers and returns their results
// in job order. Once a job has failed no further job starts, and the
// error of the lowest-indexed failed job is returned, matching what a
// sequential pass would report.
func collect[T any](workers int, jobs []func() (T, error)) ([]T, error) {
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	par.Units(workerCount(workers, len(jobs)), len(jobs), func(_, i int) {
		if failed.Load() {
			return
		}
		if out[i], errs[i] = jobs[i](); errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runArms executes the artifact's arms and returns the serving results
// in arm order. Arms with identical configurations share one
// simulation; distinct configurations run under per-arm derived seeds.
func runArms(o Options, artifact string, arms []arm) ([]*serving.Result, error) {
	o.fill()
	if o.TraceDir != "" {
		if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
			return nil, err
		}
	}
	// Deduplicate identical configurations, preserving first-seen order.
	// The fault configuration joins the key (it changes arm behaviour
	// but not the workload seed, keeping faulted/fault-free runs
	// paired on the same trace) so trace filenames and shared results
	// never conflate fault scenarios.
	faultKey := ""
	if o.Faults.Enabled() {
		faultKey = "|faults=" + o.Faults.String() + "@" + strconv.FormatInt(o.Faults.Seed, 10)
	}
	keys := make([]string, len(arms))
	assign := make([]int, len(arms))
	uniq := make([]int, 0, len(arms))
	byKey := make(map[string]int, len(arms))
	for i := range arms {
		keys[i] = arms[i].configKey() + faultKey
		if j, ok := byKey[keys[i]]; ok {
			assign[i] = j
			continue
		}
		byKey[keys[i]] = len(uniq)
		assign[i] = len(uniq)
		uniq = append(uniq, i)
	}

	var done atomic.Int64
	total := len(uniq)
	jobs := make([]func() (*serving.Result, error), total)
	for u, ai := range uniq {
		a := &arms[ai]
		ao := o
		ao.Seed = armSeed(o.Seed, a.workloadKey())
		if a.ngpus > 0 {
			ao.NGPUs = a.ngpus
		}
		label := armLabel(a)
		if o.TraceDir != "" {
			ao.tracePath = filepath.Join(o.TraceDir, traceFileName(artifact, label, keys[ai]))
		}
		jobs[u] = func() (*serving.Result, error) {
			r, err := a.m.run(ao, a.apps, a.gpus)
			if o.Progress != nil && err == nil {
				o.Progress(ProgressEvent{
					Artifact: artifact,
					Arm:      label,
					Done:     int(done.Add(1)),
					Total:    total,
				})
			}
			return r, err
		}
	}
	results, err := collect(o.Workers, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*serving.Result, len(arms))
	for i := range arms {
		out[i] = results[assign[i]]
	}
	return out, nil
}

// armLabel is the human-readable arm name used in progress reports.
func armLabel(a *arm) string {
	l := a.m.label + " apps=" + strconv.Itoa(len(a.apps)) +
		" gpus=" + strconv.FormatFloat(a.gpus, 'g', -1, 64)
	if a.ngpus > 1 {
		l += " ngpus=" + strconv.Itoa(a.ngpus)
	}
	return l
}

// traceFileName names one arm's JSONL decision trace. The arm label is
// sanitized for the filesystem and suffixed with a hash of the full
// configuration key, so arms sharing a label (e.g. an alpha sweep's
// memory variants) never collide on a filename.
func traceFileName(artifact, label, configKey string) string {
	var sb strings.Builder
	sb.WriteString(artifact)
	sb.WriteByte('-')
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '.', r == '=', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	h := fnv.New64a()
	h.Write([]byte(configKey))
	fmt.Fprintf(&sb, "-%08x.jsonl", uint32(h.Sum64()))
	return sb.String()
}

// appSetKey is a stable signature of an application list, used by the
// single-flight profile cache.
func appSetKey(apps []*app.App) string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
