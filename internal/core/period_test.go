package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/drift"
	"adainf/internal/sched"
)

// TestPeriodStartDetectionMatchesFresh runs the catalog's eight apps
// for twelve periods and retrains a seeded subset of nodes each period,
// so the drift probe keeps some nodes' memoised PCA fits and refits
// others. Every period, the warm detector's reports must equal a fresh
// detector's, and OnPeriodStart must build the same DAGs on one
// worker as on several, the DAGs the fresh reports give.
func TestPeriodStartDetectionMatchesFresh(t *testing.T) {
	var insts []*app.Instance
	var jobs []sched.JobRequest
	for i, a := range app.Catalog() {
		inst, err := app.NewInstance(a, app.InstanceConfig{Seed: int64(60 + i), PoolSamples: 1000})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
		jobs = append(jobs, sched.JobRequest{Instance: inst})
	}
	serial, parallel := New(Options{}), New(Options{})
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	rng := dist.NewRNG(9)
	kept, refitted, impacted := 0, 0, 0
	for period := 0; period < 12; period++ {
		ctx := &sched.PeriodContext{Period: period, Length: 50 * time.Second, GPUs: 4, Jobs: jobs}
		runtime.GOMAXPROCS(1)
		if _, err := serial.OnPeriodStart(ctx); err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(max(procs, 4))
		if _, err := parallel.OnPeriodStart(ctx); err != nil {
			t.Fatal(err)
		}
		warm, err := parallel.detect.DetectApps(insts, drift.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range insts {
			fresh, err := new(drift.Scratch).DetectApp(inst, drift.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm[i], fresh) {
				t.Fatalf("period %d %s: warm reports %+v, fresh %+v", period, inst.App.Name, warm[i], fresh)
			}
			name := inst.App.Name
			if !reflect.DeepEqual(serial.DagFor(name), parallel.DagFor(name)) {
				t.Fatalf("period %d %s: DAG on 1 worker %+v, on %d %+v",
					period, name, serial.DagFor(name), max(procs, 4), parallel.DagFor(name))
			}
			want := sched.BuildRIDag(inst.App, fresh)
			if !reflect.DeepEqual(parallel.DagFor(name), want) {
				t.Fatalf("period %d %s: DAG %+v, fresh reports give %+v", period, name, parallel.DagFor(name), want)
			}
			impacted += len(want.Impact)
		}
		for _, inst := range insts {
			for _, ni := range inst.Nodes() {
				if rng.Intn(3) == 0 {
					ni.NoteTrained()
					refitted++
				} else {
					kept++
				}
			}
			inst.AdvancePeriod(0)
		}
	}
	if kept == 0 || refitted == 0 || impacted == 0 {
		t.Fatalf("vacuous run: %d fits kept, %d refitted, %d impacted nodes", kept, refitted, impacted)
	}
	t.Logf("%d fits kept, %d refitted, %d impacted nodes", kept, refitted, impacted)
}
