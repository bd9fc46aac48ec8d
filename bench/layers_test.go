package main

// Layer microbenchmarks: one hot spot per layer, through public APIs
// only. Run them with
//
//	go test -run '^$' -bench . -benchmem
//
// from bench/. They are for measuring while working on one layer; the
// benchmark proper (main.go) is what a change's claim rests on.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adainf/internal/admit"
	"adainf/internal/app"
	"adainf/internal/cluster"
	"adainf/internal/core"
	"adainf/internal/dist"
	"adainf/internal/drift"
	"adainf/internal/eventsim"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/serving"
	"adainf/internal/simtime"
)

var (
	catalogOnce  sync.Once
	catalogProfs map[string]*profile.AppProfile
	catalogErr   error
)

// catalogProfiles builds the 8-app catalog's AdaInf profiles once per
// test binary.
func catalogProfiles(b *testing.B) map[string]*profile.AppProfile {
	b.Helper()
	catalogOnce.Do(func() {
		catalogProfs, catalogErr = serving.BuildProfilesWith(app.Catalog(), memAda.strategy, memAda.policy,
			serving.ProfileBuildOptions{})
	})
	if catalogErr != nil {
		b.Fatal(catalogErr)
	}
	return catalogProfs
}

// catalogInstances returns live instances of the catalog, drifted for a
// few periods so drift detection and retraining have work to do.
func catalogInstances(b *testing.B) []*app.Instance {
	b.Helper()
	var out []*app.Instance
	for i, a := range app.Catalog() {
		inst, err := app.NewInstance(a, app.InstanceConfig{Seed: int64(7 + i), PoolSamples: 2000})
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			inst.AdvancePeriod(2000)
		}
		out = append(out, inst)
	}
	return out
}

var sinkPlan *sched.SessionPlan

// BenchmarkCorePlanSession plans sessions of the 8-app catalog after
// one period start, with request counts drawn like a live session's,
// so the plan memo hits only as often as keys repeat.
func BenchmarkCorePlanSession(b *testing.B) {
	profs := catalogProfiles(b)
	insts := catalogInstances(b)
	s := core.New(core.Options{})
	pctx := &sched.PeriodContext{Length: 50 * time.Second, GPUs: 4, Rand: dist.NewRNG(3)}
	for _, inst := range insts {
		pctx.Jobs = append(pctx.Jobs, sched.JobRequest{Instance: inst, Profile: profs[inst.App.Name]})
	}
	if _, err := s.OnPeriodStart(pctx); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := &sched.SessionContext{GPUShare: 4, Jobs: make([]sched.JobRequest, len(insts))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Session = i
		for j, inst := range insts {
			ctx.Jobs[j] = sched.JobRequest{Instance: inst, Profile: profs[inst.App.Name], Requests: 1 + rng.Intn(3)}
		}
		p, err := s.PlanSession(ctx)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlan = p
	}
}

var sinkReport drift.Report

// BenchmarkDriftDetectNode runs period-start drift detection on one
// node of a drifted instance.
func BenchmarkDriftDetectNode(b *testing.B) {
	inst := catalogInstances(b)[0]
	ni := inst.Nodes()[0]
	rng := dist.NewRNG(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := drift.DetectNode(ni, drift.Config{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sinkReport = r
	}
}

var sinkDuration simtime.Duration

// BenchmarkPerBatch compares a latency probe on the flattened profile
// table with the same probe through the memoizing LatencyCache that
// serving's runJob uses.
func BenchmarkPerBatch(b *testing.B) {
	ap := catalogProfiles(b)["video-surveillance"]
	cache := profile.NewLatencyCache(ap)
	tables := ap.Tables()
	fractions := []float64{0.1, 0.25, 0.37, 0.5, 1}
	probe := func(b *testing.B, f func(ti, si, bi int, frac float64) (simtime.Duration, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ti := i % len(tables)
			tb := tables[ti]
			d, err := f(ti, i%tb.NumStructs(), i%len(tb.Batches()), fractions[i%len(fractions)])
			if err != nil {
				b.Fatal(err)
			}
			sinkDuration = d
		}
	}
	b.Run("table", func(b *testing.B) {
		probe(b, func(ti, si, bi int, frac float64) (simtime.Duration, error) {
			return tables[ti].PerBatch(si, bi, frac)
		})
	})
	b.Run("latency-cache", func(b *testing.B) {
		probe(b, cache.PerBatch)
	})
}

// BenchmarkGPUMemAcquire acquires rotating working sets of parameters
// and intermediates on a partition small enough to evict every call.
func BenchmarkGPUMemAcquire(b *testing.B) {
	const mb = 1 << 20
	m := gpumem.NewManager(gpumem.Config{GPUBytes: 64 * mb, PinBytes: 16 * mb, Policy: gpumem.PriorityPolicy{Alpha: 0.4}})
	sets := make([][]gpumem.Access, 16)
	for s := range sets {
		for l := 0; l < 6; l++ {
			model := fmt.Sprintf("m%d", s%4)
			sets[s] = append(sets[s],
				gpumem.Access{Content: gpumem.Content{
					ID:    gpumem.ContentID{App: "a", Model: model, Layer: l, Kind: gpumem.KindParam},
					Bytes: 3 * mb, SLOms: 400}, Phase: gpumem.PhaseInference, Model: model, JobID: uint64(s)},
				gpumem.Access{Content: gpumem.Content{
					ID:    gpumem.ContentID{App: "a", Model: model, Layer: l, Kind: gpumem.KindIntermediate, Seq: uint64(s)},
					Bytes: mb, SLOms: 400, ProducedOnGPU: true}, Phase: gpumem.PhaseInference, Model: model, JobID: uint64(s)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := m.Acquire(simtime.Instant(time.Duration(i)*time.Millisecond), sets[i%len(sets)])
		if err != nil {
			b.Fatal(err)
		}
		sinkDuration = d
	}
}

// BenchmarkEventsimStep fires events from a queue kept at a steady
// depth, as the serving loop's session and retraining events do.
func BenchmarkEventsimStep(b *testing.B) {
	e := eventsim.New()
	var handler eventsim.Handler
	handler = func(now simtime.Instant) {
		e.Schedule(now.Add(simtime.Duration(5*time.Millisecond)), "session", handler)
	}
	for i := 0; i < 64; i++ {
		e.Schedule(simtime.Instant(time.Duration(i)*time.Microsecond), "session", handler)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained")
		}
	}
}

var sinkPlacement *cluster.Placement

// BenchmarkClusterReplace re-packs the 8-app catalog over 4 lanes with
// one lane dead, as failover does after a crash.
func BenchmarkClusterReplace(b *testing.B) {
	topo := cluster.Topology{NGPUs: 4, PerGPUBytes: 16 << 30}
	var apps []cluster.AppLoad
	for i, a := range app.Catalog() {
		apps = append(apps, cluster.AppLoad{Name: a.Name, WorkingSetBytes: int64(2+i%3) << 30, LoadRank: i})
	}
	alive := cluster.AllAlive(4) &^ 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := cluster.Replace(topo, alive, apps)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlacement = p
	}
}

var sinkOutcome admit.Outcome

// BenchmarkAdmitEvaluate runs the SLO-feasibility gate on an
// over-committed lane, so it bisects fractions and sheds load.
func BenchmarkAdmitEvaluate(b *testing.B) {
	var apps []admit.App
	for i, a := range app.Catalog() {
		per := simtime.Duration(time.Duration(2+i) * time.Millisecond)
		apps = append(apps, admit.App{Name: a.Name, Rank: i, Requests: 40 + 5*i, SLO: a.SLO,
			Latency: func(n int, f float64) (simtime.Duration, error) {
				return simtime.Duration(float64(n) * float64(per) / f), nil
			}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := admit.Evaluate(1, apps)
		if err != nil {
			b.Fatal(err)
		}
		sinkOutcome = out
	}
}
