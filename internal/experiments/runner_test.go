package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adainf/internal/app"
)

func TestArmSeedDerivation(t *testing.T) {
	a := arm{m: adaInf(), apps: []*app.App{app.VideoSurveillance()}, gpus: 1}
	b := arm{m: adaInf(), apps: []*app.App{app.VideoSurveillance()}, gpus: 1}
	if a.configKey() != b.configKey() {
		t.Fatal("identical arms produced different config keys")
	}
	if armSeed(1, a.workloadKey()) != armSeed(1, b.workloadKey()) {
		t.Fatal("identical arms produced different seeds")
	}
	// Different methods on the same workload share the seed (paired
	// comparison) but not the config key.
	c := arm{m: ekya(), apps: []*app.App{app.VideoSurveillance()}, gpus: 1}
	if a.configKey() == c.configKey() {
		t.Fatal("different methods share a config key")
	}
	if armSeed(1, a.workloadKey()) != armSeed(1, c.workloadKey()) {
		t.Fatal("methods on the same workload must see the same trace")
	}
	// A different workload (here: a mutated early-exit threshold, the
	// Fig. 24 sweep) gets independent randomness.
	vs := app.VideoSurveillance()
	vs.Node("vehicle-type").AccThreshold = 0.95
	d := arm{m: adaInf(), apps: []*app.App{vs}, gpus: 1}
	if a.configKey() == d.configKey() {
		t.Fatal("threshold sweep points share a config key")
	}
	if armSeed(1, a.workloadKey()) == armSeed(1, d.workloadKey()) {
		t.Fatal("distinct workloads share a seed")
	}
	// The base seed matters.
	if armSeed(1, a.workloadKey()) == armSeed(2, a.workloadKey()) {
		t.Fatal("base seed does not influence the derived seed")
	}
	if armSeed(0, a.workloadKey()) == 0 {
		t.Fatal("derived seed must never be zero")
	}
}

func TestCollectOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		jobs := make([]func() (int, error), 50)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) { return i * i, nil }
		}
		out, err := collect(workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}

	// Jobs 5 and 20 fail. Serially, job 5's error stops the run before
	// job 6 starts; in parallel either failure may be seen first, and
	// no results come back.
	errAt := map[int]error{5: errors.New("job 5"), 20: errors.New("job 20")}
	for _, workers := range []int{1, 2, 8} {
		var ran [50]atomic.Bool
		jobs := make([]func() (int, error), len(ran))
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) {
				ran[i].Store(true)
				return i, errAt[i]
			}
		}
		out, err := collect(workers, jobs)
		if out != nil {
			t.Fatalf("workers=%d: results %v returned with an error", workers, out)
		}
		if workers == 1 {
			if err != errAt[5] {
				t.Fatalf("serial: error %v, want job 5's", err)
			}
			for i := range ran {
				if ran[i].Load() != (i <= 5) {
					t.Fatalf("serial: job %d ran = %v", i, ran[i].Load())
				}
			}
			continue
		}
		if err != errAt[5] && err != errAt[20] {
			t.Fatalf("workers=%d: error %v, want job 5's or job 20's", workers, err)
		}
	}
}

func TestWorkerCount(t *testing.T) {
	if w := workerCount(0, 100); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(0) = %d", w)
	}
	if w := workerCount(8, 3); w != 3 {
		t.Fatalf("more workers than jobs: %d", w)
	}
	if w := workerCount(1, 100); w != 1 {
		t.Fatalf("sequential request: %d", w)
	}
}

// TestRunArmsDedup checks that repeated configurations run once: quick
// Fig. 18 has 5 arms per method (default, 2 app-count points, 2
// GPU-count points) of which the default, the 8-apps point, and the
// 4-GPUs point are the same simulation.
func TestRunArmsDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs serving simulations")
	}
	var mu sync.Mutex
	var events []ProgressEvent
	o := Options{
		Quick:   true,
		Seed:    3,
		Horizon: 50 * time.Second,
		Workers: 1,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	if _, err := Fig18(o); err != nil {
		t.Fatal(err)
	}
	// 4 methods × 5 arms = 20 requested, 12 unique.
	if len(events) != 12 {
		t.Fatalf("unique arms run = %d, want 12", len(events))
	}
	last := events[len(events)-1]
	if last.Done != last.Total || last.Total != 12 {
		t.Fatalf("progress ended at %d/%d", last.Done, last.Total)
	}
}

// TestParallelDeterminism is the engine's core guarantee: for a fixed
// seed the rendered artifact is identical whether arms run sequentially
// or on any number of workers.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep runs serving simulations")
	}
	workerCounts := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	figs := []struct {
		name string
		fn   func(Options) (*Result, error)
	}{
		{"fig18", Fig18},
		{"fig22", Fig22},
	}
	for _, fg := range figs {
		base := Options{Quick: true, Seed: 5, Horizon: 50 * time.Second, Workers: 1}
		want, err := fg.fn(base)
		if err != nil {
			t.Fatalf("%s sequential: %v", fg.name, err)
		}
		for _, w := range workerCounts {
			o := base
			o.Workers = w
			got, err := fg.fn(o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fg.name, w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: workers=%d result differs from sequential", fg.name, w)
			}
		}
	}
}

// TestProfileCacheSingleFlight hammers the shared profile cache from
// many goroutines: every caller must get the same built profile, and
// the build must not race (run under -race).
func TestProfileCacheSingleFlight(t *testing.T) {
	apps := []*app.App{app.BikeRackOccupancy()}
	mem := adaMemory(0.4)
	const callers = 8
	results := make([]uintptr, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := profilesFor(apps, mem, "", false)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = reflect.ValueOf(p).Pointer()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("profile cache returned different maps for the same key")
		}
	}
}

// TestRunArmsParallelMatchesSerial runs the quick fig18 two-app arms,
// one per method, for two periods through
// runArms on two workers and compares them with a serial run. It is
// short enough for a race-detector CI step, which checks the serving
// loop's filler and scorer goroutines inside the runner's parallel arms.
func TestRunArmsParallelMatchesSerial(t *testing.T) {
	var arms []arm
	for _, a := range fig18QuickArms(t) {
		if len(a.apps) == 2 {
			arms = append(arms, a)
		}
	}
	if len(arms) != 4 {
		t.Fatalf("quick fig18 has %d two-app arms, want one per method", len(arms))
	}
	run := func(workers int) []goldenMetrics {
		o := Options{Quick: true, Seed: 3, Horizon: 100 * time.Second, Workers: workers, Audit: true}
		rs, err := runArms(o, "fig18", arms)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]goldenMetrics, len(rs))
		for i, r := range rs {
			if r.Requests == 0 {
				t.Fatalf("workers=%d: %s served no requests", workers, armLabel(&arms[i]))
			}
			out[i] = goldenOf(r)
		}
		return out
	}
	want, got := run(1), run(2)
	for i := range arms {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: parallel run differs from serial\n got: %+v\nwant: %+v", armLabel(&arms[i]), got[i], want[i])
		}
	}
}
