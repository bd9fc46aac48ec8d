package app

import (
	"math"
	"strings"
	"testing"
	"time"

	"adainf/internal/synthdata"
)

func TestCatalogValid(t *testing.T) {
	apps := Catalog()
	if len(apps) != 8 {
		t.Fatalf("catalog size = %d, want 8 (§4 default)", len(apps))
	}
	names := make(map[string]bool)
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if names[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		names[a.Name] = true
		if a.SLO < 400*time.Millisecond || a.SLO > 600*time.Millisecond {
			t.Errorf("%s SLO %v outside the paper's [400,600] ms", a.Name, a.SLO)
		}
	}
}

// roots returns the names of a's nodes with no dependencies.
func roots(a *App) []string {
	var out []string
	for _, n := range a.Nodes {
		if len(n.Deps) == 0 {
			out = append(out, n.Name)
		}
	}
	return out
}

func TestVideoSurveillanceShape(t *testing.T) {
	vs := VideoSurveillance()
	if got := roots(vs); len(got) != 1 || got[0] != "object-detection" {
		t.Fatalf("roots = %v", got)
	}
	leaves := vs.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %v, want vehicle-type and person-activity", leaves)
	}
	if vs.SLOms() != 400 {
		t.Fatalf("SLOms = %v", vs.SLOms())
	}
	if vs.Node("vehicle-type") == nil || vs.Node("nope") != nil {
		t.Fatal("Node lookup broken")
	}
	// Drift asymmetry of Fig. 6: detection static, vehicle > person,
	// ordered by walk step plus expected shock per period.
	magnitude := func(node string) float64 {
		d := vs.Node(node).Task.LabelDrift
		return d.WalkSigma + d.ShockProb*d.ShockScale
	}
	det := magnitude("object-detection")
	veh := magnitude("vehicle-type")
	per := magnitude("person-activity")
	if det != 0 {
		t.Errorf("object detection drifts: %v", det)
	}
	if !(veh > per && per > 0) {
		t.Errorf("drift ordering broken: vehicle %v, person %v", veh, per)
	}
}

func TestSocialMediaComplexDAG(t *testing.T) {
	sm := SocialMedia()
	if len(roots(sm)) != 2 || len(sm.Nodes) != 4 {
		t.Fatalf("social media DAG shape: roots=%v nodes=%d", roots(sm), len(sm.Nodes))
	}
}

func TestAmberAlertTwoRootJoin(t *testing.T) {
	aa := AmberAlert()
	mm := aa.Node("make-model")
	if len(mm.Deps) != 2 {
		t.Fatalf("make-model deps = %v", mm.Deps)
	}
}

func TestBikeRackSingleModel(t *testing.T) {
	br := BikeRackOccupancy()
	if len(br.Nodes) != 1 {
		t.Fatalf("bike rack nodes = %d", len(br.Nodes))
	}
	if got := br.Leaves(); len(got) != 1 || got[0] != "rack-detection" {
		t.Fatalf("leaves = %v", got)
	}
}

func TestValidateRejectsBadApps(t *testing.T) {
	base := func() *App { return VideoSurveillance() }
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"zero SLO", func(a *App) { a.SLO = 0 }},
		{"no nodes", func(a *App) { a.Nodes = nil }},
		{"empty node name", func(a *App) { a.Nodes[0].Name = "" }},
		{"dup node", func(a *App) { a.Nodes[1].Name = a.Nodes[0].Name }},
		{"no model", func(a *App) { a.Nodes[0].Model = "" }},
		{"forward dep", func(a *App) { a.Nodes[0].Deps = []string{"vehicle-type"} }},
		{"unknown dep", func(a *App) { a.Nodes[1].Deps = []string{"ghost"} }},
		{"bad threshold", func(a *App) { a.Nodes[0].AccThreshold = 1.0 }},
	}
	for _, tc := range cases {
		a := base()
		tc.mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: invalid app passed validation", tc.name)
		}
	}
}

func TestCatalogN(t *testing.T) {
	if _, err := CatalogN(0); err == nil {
		t.Error("CatalogN(0) accepted")
	}
	apps, err := CatalogN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 10 {
		t.Fatalf("len = %d", len(apps))
	}
	seen := make(map[string]bool)
	for _, a := range apps {
		if seen[a.Name] {
			t.Fatalf("duplicate name %q in CatalogN", a.Name)
		}
		seen[a.Name] = true
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	small, _ := CatalogN(2)
	if len(small) != 2 {
		t.Fatalf("CatalogN(2) len = %d", len(small))
	}
}

func TestNewInstance(t *testing.T) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Nodes()) != 3 {
		t.Fatalf("nodes = %d", len(inst.Nodes()))
	}
	for _, ni := range inst.Nodes() {
		if ni.InitialAccuracy <= 0.5 || ni.InitialAccuracy > 1 {
			t.Errorf("%s initial accuracy = %v", ni.Node.Name, ni.InitialAccuracy)
		}
		if len(ni.Structures) < 2 {
			t.Errorf("%s has %d structures", ni.Node.Name, len(ni.Structures))
		}
		if !ni.FullStructure().IsFull() {
			t.Errorf("%s FullStructure not full", ni.Node.Name)
		}
		if ni.RemainingSamples() != 1000 {
			t.Errorf("%s pool = %d", ni.Node.Name, ni.RemainingSamples())
		}
	}
}

func TestNewInstanceUnknownModel(t *testing.T) {
	a := VideoSurveillance()
	a.Nodes[0].Model = "NoSuchNet"
	if _, err := NewInstance(a, InstanceConfig{Seed: 1}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestInstanceAdvancePeriod(t *testing.T) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 2, PoolSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	ni := inst.ByName["vehicle-type"]
	firstPool := ni.Pool
	firstSamples := cloneSamples(firstPool.Samples)
	bootstrap := ni.OldData
	det := inst.ByName["object-detection"]
	detPool, detOld := det.Pool, det.OldData
	bootStorage, detStorage := &bootstrap.Samples[0], &detPool.Samples[0]
	ni.ConsumeSamples(100)
	ni.NoteTrained()
	inst.AdvancePeriod(0)
	if inst.Period() != 1 {
		t.Fatalf("period = %d", inst.Period())
	}
	if ni.OldData != firstPool {
		t.Fatal("retrained node's pool did not become OldData")
	}
	if !sameSamples(ni.OldData.Samples, firstSamples) {
		t.Fatal("retrained node's old pool changed on becoming OldData")
	}
	// Each node drops one dataset per boundary: a retrained node its
	// old reference, any other node its old pool. The dropped dataset's
	// storage backs the new pool, and the dataset itself is left empty.
	if len(bootstrap.Samples) != 0 {
		t.Fatalf("retrained node's dropped reference still holds %d samples", len(bootstrap.Samples))
	}
	if &ni.Pool.Samples[0] != bootStorage || &det.Pool.Samples[0] != detStorage {
		t.Fatal("new pools do not reuse the dropped datasets' storage")
	}
	if ni.TrainedThisPeriod() {
		t.Fatal("trained flag not reset at period boundary")
	}
	// An un-retrained node keeps its old reference, so accumulated
	// drift stays visible to the detector.
	if det.OldData != detOld || len(detOld.Samples) != 2000 {
		t.Fatal("un-retrained node advanced or emptied its OldData")
	}
	if det.Pool == detPool || len(detPool.Samples) != 0 {
		t.Fatalf("un-retrained node's dropped pool still holds %d samples", len(detPool.Samples))
	}
	if ni.UsedSamples != 0 {
		t.Fatal("UsedSamples not reset")
	}
	if len(ni.Pool.Samples) != 500 {
		t.Fatalf("new pool size = %d", len(ni.Pool.Samples))
	}
	if ni.Stream.Period() != 1 {
		t.Fatalf("stream period = %d", ni.Stream.Period())
	}
}

func TestConsumeSamples(t *testing.T) {
	inst, _ := NewInstance(BikeRackOccupancy(), InstanceConfig{Seed: 3, PoolSamples: 100})
	ni := inst.Nodes()[0]
	if got := ni.ConsumeSamples(60); got != 60 {
		t.Fatalf("ConsumeSamples = %d", got)
	}
	if got := ni.ConsumeSamples(60); got != 40 {
		t.Fatalf("second ConsumeSamples = %d, want remaining 40", got)
	}
	if got := ni.ConsumeSamples(10); got != 0 {
		t.Fatalf("exhausted pool gave %d", got)
	}
}

func TestPoolDist(t *testing.T) {
	inst, _ := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 4})
	ni := inst.ByName["vehicle-type"]
	d, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 5 {
		t.Fatalf("pool dist K = %d", d.K())
	}
	ni.Pool = &synthdata.Dataset{}
	if _, err := ni.PoolDist(); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestDriftAccumulatesAccuracyLoss(t *testing.T) {
	// After several periods without retraining, the strongly drifting
	// vehicle-type node must lose accuracy while the drift-free
	// detector holds — Observation 2 in miniature.
	inst, _ := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 5})
	for p := 0; p < 12; p++ {
		inst.AdvancePeriod(0)
	}
	veh := inst.ByName["vehicle-type"]
	det := inst.ByName["object-detection"]
	vehAcc := veh.State.Accuracy(veh.LiveDist())
	detAcc := det.State.Accuracy(det.LiveDist())
	if vehAcc >= veh.InitialAccuracy-0.01 {
		t.Fatalf("vehicle accuracy %v did not drop from %v after 12 drifting periods",
			vehAcc, veh.InitialAccuracy)
	}
	if detAcc < det.InitialAccuracy-1e-6 {
		t.Fatalf("drift-free detector lost accuracy: %v < %v", detAcc, det.InitialAccuracy)
	}
}

func cloneSamples(xs []synthdata.Sample) []synthdata.Sample {
	out := make([]synthdata.Sample, len(xs))
	for i, x := range xs {
		out[i] = x
		out[i].Features = append([]float64(nil), x.Features...)
	}
	return out
}

func sameSamples(a, b []synthdata.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Period != b[i].Period || len(a[i].Features) != len(b[i].Features) {
			return false
		}
		for j, x := range a[i].Features {
			if math.Float64bits(x) != math.Float64bits(b[i].Features[j]) {
				return false
			}
		}
	}
	return true
}

func TestNewInstanceRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		cfg   InstanceConfig
		field string
	}{
		{InstanceConfig{PoolSamples: -5}, "PoolSamples"},
	} {
		_, err := NewInstance(VideoSurveillance(), c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: err = %v, want one naming %s", c.cfg, err, c.field)
		}
	}
	// Zero fields still take their defaults.
	if _, err := NewInstance(VideoSurveillance(), InstanceConfig{}); err != nil {
		t.Fatalf("zero config: %v", err)
	}
}

// advanceAllocs measures one steady-state period boundary of a
// catalog application at the given pool size: two warm-up boundaries
// retire the bootstrap data, then every node is retrained (or none is)
// each period.
func advanceAllocs(t *testing.T, pool int, retrain bool) float64 {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 6, PoolSamples: pool})
	if err != nil {
		t.Fatal(err)
	}
	boundary := func(retrain bool) {
		if retrain {
			for _, ni := range inst.Nodes() {
				ni.NoteTrained()
			}
		}
		inst.AdvancePeriod(0)
	}
	boundary(true)
	boundary(retrain)
	return testing.AllocsPerRun(20, func() { boundary(retrain) })
}

// TestAdvancePeriodAllocsIndependentOfPoolSize guards pool recycling:
// once warm, a period boundary reuses the dropped dataset's storage,
// so an 8000-sample pool costs no more allocations than a 1000-sample
// one, whether nodes were retrained or not.
func TestAdvancePeriodAllocsIndependentOfPoolSize(t *testing.T) {
	for _, retrain := range []bool{false, true} {
		small, large := advanceAllocs(t, 1000, retrain), advanceAllocs(t, 8000, retrain)
		if small != large {
			t.Errorf("retrain=%v: AdvancePeriod allocs %v at pool 1000, %v at pool 8000", retrain, small, large)
		}
	}
}

// BenchmarkAdvancePeriod runs one period boundary of every catalog
// application with 8000-sample pools, the serving workloads' pool
// size, retraining every other node in turn.
func BenchmarkAdvancePeriod(b *testing.B) {
	var insts []*Instance
	for i, a := range Catalog() {
		inst, err := NewInstance(a, InstanceConfig{Seed: int64(i + 1), PoolSamples: 8000})
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, inst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			for k, ni := range inst.Nodes() {
				if (i+k)%2 == 0 {
					ni.NoteTrained()
				}
			}
			inst.AdvancePeriod(0)
		}
	}
}
