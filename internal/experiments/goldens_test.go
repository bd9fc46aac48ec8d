package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/core"
	"adainf/internal/sched"
	"adainf/internal/serving"
)

// The serving goldens pin the exact metric values the seed's
// session-stepping loop produced for the quick fig18/fig22 arm
// configurations. The event-driven serving core must reproduce them
// bit for bit (same seed, same trace, same rounding); any divergence
// is a correctness bug, not noise. Regenerate (only when a behaviour
// change is intended) with:
//
//	go test ./internal/experiments -run TestServingGoldens -update
var updateGoldens = flag.Bool("update", false, "rewrite testdata/serving_goldens.json")

// goldenMetrics mirrors the deterministic part of serving.Result.
// Wall-clock fields (Measured*) and diagnostic counters are excluded:
// they legitimately vary across runs and implementations.
type goldenMetrics struct {
	Method string

	PeriodAccuracy    []float64
	MeanAccuracy      float64
	FinishRateWindows []float64
	MeanFinishRate    float64

	UpdatedModelFraction []float64
	UtilizationPerSec    []float64

	MeanInferLatencyMs   float64
	MeanRetrainLatencyMs float64

	RetrainTimePerPeriodS []float64
	RetrainSampleFraction []float64

	PeriodOverhead    time.Duration
	SessionOverhead   time.Duration
	EdgeCloudTransfer time.Duration
	EdgeCloudBytes    int64

	Requests int
	Jobs     int
}

func goldenOf(r *serving.Result) goldenMetrics {
	return goldenMetrics{
		Method:                r.Method,
		PeriodAccuracy:        r.PeriodAccuracy,
		MeanAccuracy:          r.MeanAccuracy,
		FinishRateWindows:     r.FinishRateWindows,
		MeanFinishRate:        r.MeanFinishRate,
		UpdatedModelFraction:  r.UpdatedModelFraction,
		UtilizationPerSec:     r.UtilizationPerSec,
		MeanInferLatencyMs:    r.MeanInferLatencyMs,
		MeanRetrainLatencyMs:  r.MeanRetrainLatencyMs,
		RetrainTimePerPeriodS: r.RetrainTimePerPeriodS,
		RetrainSampleFraction: r.RetrainSampleFraction,
		PeriodOverhead:        r.PeriodOverhead,
		SessionOverhead:       r.SessionOverhead,
		EdgeCloudTransfer:     r.EdgeCloudTransfer,
		EdgeCloudBytes:        r.EdgeCloudBytes,
		Requests:              r.Requests,
		Jobs:                  r.Jobs,
	}
}

// goldenArms returns the unique arms of the quick fig18 comparison
// sweep and the quick fig22 ablation, labelled by artifact and arm.
func goldenArms(t *testing.T) (labels []string, arms []arm) {
	t.Helper()
	add := func(artifact string, as []arm) {
		seen := make(map[string]bool)
		for i := range as {
			key := as[i].configKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			labels = append(labels, artifact+"/"+armLabel(&as[i]))
			arms = append(arms, as[i])
		}
	}
	add("fig18", fig18QuickArms(t))
	add("fig22", fig22QuickArms(t))
	// fig24's arms share armLabel (same method/app count/GPUs, only the
	// vehicle-type accuracy threshold differs), so label by threshold.
	for _, a := range fig24QuickArms() {
		am := a.apps[0].Node("vehicle-type").AccThreshold
		labels = append(labels, fmt.Sprintf("fig24/%s A_m=%.2f", armLabel(&a), am))
		arms = append(arms, a)
	}
	return labels, arms
}

// goldenOptions are the run parameters every golden comparison uses.
// Two periods: covers period boundaries, whole-pool retrain
// completions mid-period, and cross-period drift adaptation while
// staying affordable in CI.
//
// Audit is on: the invariant auditor is read-only, so every golden
// arm must reproduce the recorded (pre-auditor) metrics bit for bit
// while also passing the full invariant catalog — a violation fails
// the arm before the comparison.
func goldenOptions() Options {
	o := Options{Quick: true, Seed: 3, Horizon: 100 * time.Second, Workers: 1, Audit: true}
	o.fill()
	return o
}

// goldenSnapshot runs every golden arm under the options and returns
// the marshaled metrics map with its labels.
func goldenSnapshot(t *testing.T, o Options) ([]byte, []string, map[string]goldenMetrics) {
	t.Helper()
	labels, arms := goldenArms(t)
	got := make(map[string]goldenMetrics, len(arms))
	for i := range arms {
		a := &arms[i]
		ao := o
		ao.Seed = armSeed(o.Seed, a.workloadKey())
		r, err := a.m.run(ao, a.apps, a.gpus)
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		got[labels[i]] = goldenOf(r)
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n'), labels, got
}

// reportGoldenDiff pins the first differing arm when a snapshot
// diverges from the committed goldens, to make divergences debuggable.
func reportGoldenDiff(t *testing.T, want []byte, labels []string, got map[string]goldenMetrics) {
	t.Helper()
	var wantMap map[string]goldenMetrics
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatalf("corrupt goldens: %v", err)
	}
	for _, label := range labels {
		w, _ := json.Marshal(wantMap[label])
		g, _ := json.Marshal(got[label])
		if string(w) != string(g) {
			t.Errorf("%s diverged from golden\n got: %s\nwant: %s", label, g, w)
		}
	}
	if !t.Failed() {
		t.Fatal("golden file differs (arm set changed?); re-record with -update if intended")
	}
}

func TestServingGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick fig18/fig22 arm set")
	}
	buf, labels, got := goldenSnapshot(t, goldenOptions())
	path := filepath.Join("testdata", "serving_goldens.json")
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d arms)", path, len(labels))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (re-record with -update): %v", err)
	}
	if string(want) == string(buf) {
		return
	}
	reportGoldenDiff(t, want, labels, got)
}

// fig18QuickArms rebuilds the arm list of the quick fig18/fig19
// comparison sweep (see comparisonSweep).
func fig18QuickArms(t *testing.T) []arm {
	t.Helper()
	defaultApps := app.Catalog()
	twoApps, err := app.CatalogN(2)
	if err != nil {
		t.Fatal(err)
	}
	var arms []arm
	for _, m := range comparisonMethods() {
		arms = append(arms,
			arm{m: m, apps: defaultApps, gpus: 4},
			arm{m: m, apps: twoApps, gpus: 4},
			arm{m: m, apps: defaultApps, gpus: 1},
		)
	}
	return arms
}

// fig24QuickArms rebuilds the quick fig24 arm list: AdaInf serving the
// video-surveillance pipeline alone on one GPU with the vehicle-type
// accuracy threshold A_m mutated (see Fig24). Among the remaining
// macro artifacts this is the one worth pinning: fig19's quick arm
// list is identical to fig18's, while fig24 exercises the
// single-app/single-GPU drift-threshold regime no other golden covers.
func fig24QuickArms() []arm {
	thresholds := []float64{0.80, 0.95}
	arms := make([]arm, len(thresholds))
	for i, am := range thresholds {
		vs := app.VideoSurveillance()
		vs.Node("vehicle-type").AccThreshold = am
		arms[i] = arm{m: adaInf(), apps: []*app.App{vs}, gpus: 1}
	}
	return arms
}

// fig22QuickArms rebuilds the quick fig22 ablation arm list: every
// AdaInf variant at the default 8 apps / 4 GPUs (see Fig22).
func fig22QuickArms(t *testing.T) []arm {
	t.Helper()
	apps := app.Catalog()
	adaVariant := func(label string, opts core.Options, mem memoryConfig) method {
		opts.Label = label
		return method{
			label:   label,
			build:   func() sched.Method { return core.New(opts) },
			retrain: true, divergent: true, mem: mem,
		}
	}
	variants := []method{
		adaInf(),
		adaVariant("AdaInf/I", core.Options{EqualRetrainSplit: true}, adaMemory(0.4)),
		adaVariant("AdaInf/U", core.Options{NoDAGUpdate: true}, adaMemory(0.4)),
		adaVariant("AdaInf/S", core.Options{EqualSpaceSplit: true}, adaMemory(0.4)),
		adaVariant("AdaInf/E", core.Options{FullStructureOnly: true}, adaMemory(0.4)),
		adaVariant("AdaInf/M1", core.Options{}, m1Memory()),
		adaVariant("AdaInf/M2", core.Options{}, m2Memory()),
	}
	arms := make([]arm, len(variants))
	for i, m := range variants {
		arms[i] = arm{m: m, apps: apps, gpus: 4}
	}
	return arms
}
