package gpu

import (
	"math"
	"testing"
	"time"

	"adainf/internal/dnn"
	"adainf/internal/gpumem"
	"adainf/internal/simtime"
)

func TestEfficiencyMonotone(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		u := efficiency(n)
		if u <= prev || u >= 1 {
			t.Fatalf("efficiency(%d) = %v not in (prev, 1)", n, u)
		}
		prev = u
	}
	if efficiency(0) != efficiency(1) {
		t.Fatal("batch<1 not clamped")
	}
}

func TestPartitionValidation(t *testing.T) {
	bad := []struct {
		fraction float64
		cfg      PartitionConfig
	}{
		{0, PartitionConfig{}},
		{-0.5, PartitionConfig{}},
		{1.5, PartitionConfig{}},
		{math.NaN(), PartitionConfig{}},
		{1, PartitionConfig{MemShare: -0.1}},
		{1, PartitionConfig{MemShare: 1.5}},
		{1, PartitionConfig{MemShare: math.NaN()}},
		{1, PartitionConfig{Policy: gpumem.PriorityPolicy{Alpha: 2}}},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for fraction %v config %+v", c.fraction, c.cfg)
				}
			}()
			NewPartition(c.fraction, c.cfg)
		}()
		p := NewPartition(0.5, PartitionConfig{})
		if err := p.Reset(c.fraction, c.cfg); err == nil {
			t.Errorf("Reset accepted fraction %v config %+v", c.fraction, c.cfg)
		}
		if p.Fraction() != 0.5 || p.Mem().Capacity() != MemBytes/2 {
			t.Errorf("rejected Reset changed the partition")
		}
	}
}

func TestPartitionResetMatchesNew(t *testing.T) {
	p := NewPartition(1, PartitionConfig{MemShare: 0.5})
	e := NewExecutor(p, Strategy{})
	if _, err := e.RunInference(0, InferenceTask{App: "a", JobID: 1, Structure: dnn.FullStructure(dnn.MobileNetV2()), Batch: 8, SLOms: 400}); err != nil {
		t.Fatal(err)
	}
	cfg := PartitionConfig{MemShare: 0.04, Policy: gpumem.PriorityPolicy{Alpha: 0.4}}
	if err := p.Reset(0.25, cfg); err != nil {
		t.Fatal(err)
	}
	fresh := NewPartition(0.25, cfg)
	task := InferenceTask{App: "a", JobID: 1, Structure: dnn.FullStructure(dnn.MobileNetV2()), Batch: 16, SLOms: 400}
	got, err := NewExecutor(p, Strategy{}).RunInference(0, task)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExecutor(fresh, Strategy{}).RunInference(0, task)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || p.Fraction() != fresh.Fraction() || p.Mem().StateDigest() != fresh.Mem().StateDigest() {
		t.Fatalf("reset partition ran %+v, fresh one %+v", got, want)
	}
}

func TestKernelTimeScalesInverselyWithFraction(t *testing.T) {
	full := NewPartition(1, PartitionConfig{})
	quarter := NewPartition(0.25, PartitionConfig{})
	flops := 1e9
	tf := full.KernelTime(flops, 16) - Launch
	tq := quarter.KernelTime(flops, 16) - Launch
	ratio := float64(tq) / float64(tf)
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("quarter/full kernel ratio = %v, want ~4", ratio)
	}
}

func TestKernelTimePerSampleDropsWithBatch(t *testing.T) {
	p := NewPartition(1, PartitionConfig{})
	flops := 1e9
	perSample1 := float64(p.KernelTime(flops, 1))
	perSample32 := float64(p.KernelTime(flops, 32)) / 32
	if perSample32 >= perSample1 {
		t.Fatalf("batching does not amortize: %v vs %v", perSample32, perSample1)
	}
}

func TestPartitionMemoryScalesWithFraction(t *testing.T) {
	full := NewPartition(1, PartitionConfig{})
	quarter := NewPartition(0.25, PartitionConfig{})
	if quarter.Mem().Capacity() >= full.Mem().Capacity() {
		t.Fatal("smaller fraction did not get smaller memory slice")
	}
	if full.Mem().Capacity() != MemBytes {
		t.Fatalf("full partition capacity = %d", full.Mem().Capacity())
	}
	shared := NewPartition(1, PartitionConfig{MemShare: 0.1})
	if shared.Mem().Capacity() >= full.Mem().Capacity()/5 {
		t.Fatal("MemShare did not shrink the slice")
	}
}

func TestKernelTimeNegativeWorkPanics(t *testing.T) {
	p := NewPartition(1, PartitionConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative work")
		}
	}()
	p.KernelTime(-1, 1)
}

func newTestExecutor(memShare float64, strat Strategy) *Executor {
	p := NewPartition(1, PartitionConfig{MemShare: memShare, Policy: gpumem.PriorityPolicy{Alpha: 0.4}})
	return NewExecutor(p, strat)
}

func TestRunInferenceBasic(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	st := dnn.FullStructure(dnn.MobileNetV2())
	res, err := e.RunInference(0, InferenceTask{
		App: "vs", JobID: 1, Structure: st, Batch: 16, SLOms: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compute <= 0 {
		t.Fatal("no compute time")
	}
	if res.End != simtime.Instant(res.Total()) {
		t.Fatalf("End %v != Total %v from start 0", res.End, res.Total())
	}
	// The final output must be resident for downstream consumption.
	if !e.Partition().Mem().Resident(res.Output) {
		t.Fatal("final output not resident")
	}
	if res.Output.Layer != st.ExitAfter()-1 {
		t.Fatalf("output layer = %d", res.Output.Layer)
	}
}

func TestRunInferenceValidation(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	st := dnn.FullStructure(dnn.ShuffleNet())
	if _, err := e.RunInference(0, InferenceTask{App: "a", Structure: st, Batch: 0}); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := e.RunInference(0, InferenceTask{
		App: "a", Structure: st, Batch: 1,
		PrevOutputs: []gpumem.ContentID{{}}, PrevOutputBytes: nil,
	}); err == nil {
		t.Error("mismatched prev outputs accepted")
	}
}

func TestDAGOutputConsumption(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	det, err := e.RunInference(0, InferenceTask{
		App: "vs", JobID: 1, Structure: dnn.FullStructure(dnn.TinyYOLOv3()), Batch: 8, SLOms: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunInference(det.End, InferenceTask{
		App: "vs", JobID: 1, Structure: dnn.FullStructure(dnn.MobileNetV2()), Batch: 8, SLOms: 400,
		PrevOutputs:     []gpumem.ContentID{det.Output},
		PrevOutputBytes: []int64{1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-task intermediate reuse must be recorded (Fig. 12b).
	if got := e.Partition().Mem().CrossCDF(gpumem.CrossTaskIntermediate).N(); got == 0 {
		t.Fatal("no cross-task intermediate reuse recorded")
	}
}

func TestLayerSyncBeatsPerRequestUnderMemoryPressure(t *testing.T) {
	// With a tight memory slice, per-request execution refetches layer
	// params repeatedly; layer-synchronized execution reuses them
	// within the batch. Comm time must be strictly lower for LayerSync.
	run := func(maximize bool) simtime.Duration {
		// ~46 MB slice: batch working sets fit, but params + both
		// intermediate batches do not, forcing param evictions.
		e := newTestExecutor(0.0028, Strategy{MaximizeUsage: maximize})
		res, err := e.RunInference(0, InferenceTask{
			App: "vs", JobID: 1, Structure: dnn.FullStructure(dnn.ShuffleNet()), Batch: 4, SLOms: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Comm
	}
	sync := run(true)
	perReq := run(false)
	if sync >= perReq {
		t.Fatalf("LayerSync comm %v not below per-request %v", sync, perReq)
	}
}

func TestRunRetrainingBasic(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	res, end, err := e.RunRetraining(0, RetrainTask{
		App: "vs", JobID: 1, Arch: dnn.ShuffleNet(), Samples: 64, BatchSize: 32, SLOms: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compute <= 0 || end <= 0 {
		t.Fatalf("empty result: %+v end=%v", res, end)
	}
	// Retraining must record param accesses in the retraining phase.
	if got := e.Partition().Mem().ReuseCDF(gpumem.ReuseClass{Kind: gpumem.KindParam, Phase: gpumem.PhaseRetraining}).N(); got == 0 {
		t.Fatal("no retraining param reuse recorded")
	}
}

func TestRunRetrainingValidation(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	if _, _, err := e.RunRetraining(0, RetrainTask{App: "a", Arch: dnn.ShuffleNet(), Samples: 0, BatchSize: 8}); err == nil {
		t.Error("0 samples accepted")
	}
	if _, _, err := e.RunRetraining(0, RetrainTask{App: "a", Arch: dnn.ShuffleNet(), Samples: 8, BatchSize: 0}); err == nil {
		t.Error("0 batch accepted")
	}
}

func TestRetrainThenInferRecordsCrossTaskParam(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	_, end, err := e.RunRetraining(0, RetrainTask{
		App: "vs", JobID: 1, Arch: dnn.MobileNetV2(), Samples: 16, BatchSize: 16, SLOms: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunInference(end, InferenceTask{
		App: "vs", JobID: 1, Structure: dnn.FullStructure(dnn.MobileNetV2()), Batch: 8, SLOms: 400,
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Partition().Mem().CrossCDF(gpumem.CrossTaskParam).N(); got == 0 {
		t.Fatal("no retrain→infer param reuse recorded (Fig. 12b)")
	}
}

// TestFinishJobDropsIntermediatesKeepsParams runs one job each of two
// apps and finishes only the first: its intermediates must go, its
// params stay only under MaximizeUsage, and the other app's contents
// must all survive.
func TestFinishJobDropsIntermediatesKeepsParams(t *testing.T) {
	for _, maximize := range []bool{true, false} {
		e := newTestExecutor(1, Strategy{MaximizeUsage: maximize})
		mem := e.Partition().Mem()
		outs := map[string]gpumem.ContentID{}
		for _, app := range []string{"vs", "other"} {
			res, err := e.RunInference(0, InferenceTask{
				App: app, JobID: 1, Structure: dnn.FullStructure(dnn.ShuffleNet()), Batch: 4, SLOms: 400,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !mem.Resident(res.Output) {
				t.Fatalf("maximize=%v: %s output not resident before FinishJob", maximize, app)
			}
			outs[app] = res.Output
		}
		e.FinishJob("vs")
		if mem.Resident(outs["vs"]) {
			t.Fatalf("maximize=%v: intermediate output survived FinishJob", maximize)
		}
		paramID := gpumem.ContentID{App: "vs", Model: "ShuffleNet", Layer: 0, Kind: gpumem.KindParam}
		if got := mem.Resident(paramID); got != maximize {
			t.Fatalf("maximize=%v: params resident after FinishJob = %v", maximize, got)
		}
		paramID.App = "other"
		if !mem.Resident(outs["other"]) || !mem.Resident(paramID) {
			t.Fatalf("maximize=%v: FinishJob(vs) dropped the other app's contents", maximize)
		}
	}
}

func TestCrossJobParamReuse(t *testing.T) {
	e := newTestExecutor(1, Strategy{MaximizeUsage: true})
	task := InferenceTask{App: "vs", JobID: 1, Structure: dnn.FullStructure(dnn.MobileNetV2()), Batch: 4, SLOms: 400}
	r1, err := e.RunInference(0, task)
	if err != nil {
		t.Fatal(err)
	}
	e.FinishJob("vs")
	task.JobID = 2
	if _, err := e.RunInference(r1.End.Add(60*time.Millisecond), task); err != nil {
		t.Fatal(err)
	}
	if got := e.Partition().Mem().CrossCDF(gpumem.CrossJobParam).N(); got == 0 {
		t.Fatal("no cross-job param reuse recorded (Fig. 13)")
	}
}

func TestNewExecutorNilPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewExecutor(nil, Strategy{})
}
