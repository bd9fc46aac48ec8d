package serving

import (
	"testing"
	"time"

	"adainf/internal/audit"
	"adainf/internal/core"
	"adainf/internal/faults"
)

// crashConfig builds the base config of the lane-failure suite: a
// sharded server under a deterministic lane-crash schedule.
func crashConfig(t *testing.T, ngpus int, fc *faults.Config) Config {
	t.Helper()
	cfg := laneConfig(t, ngpus)
	cfg.Faults = fc
	return cfg
}

// TestGPUCrashFailoverUnderAudit runs every scheduling method on two
// lanes with a certain crash at the first eligible boundary: the
// failover re-pack must fire, the run must stay audit-clean under the
// full catalog — including fault-gpu-crash and admit-feasibility — and
// every request must still be accounted for (conservation closes even
// when admission sheds).
func TestGPUCrashFailoverUnderAudit(t *testing.T) {
	fc := &faults.Config{Seed: 5, GPUCrash: 1, GPUCrashMax: 1}
	for _, m := range faultMethods() {
		var rep audit.Report
		cfg := crashConfig(t, 2, fc)
		cfg.Method = m.build()
		cfg.AuditReport = &rep
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if rep.Total != 0 {
			t.Errorf("%s: %v", m.name, rep.Err())
		}
		if rep.Checks == 0 {
			t.Errorf("%s: auditor performed no checks", m.name)
		}
		if res.FaultGPUCrashes == 0 {
			t.Errorf("%s: certain crash schedule crashed no lane", m.name)
		}
		if res.FaultReplacements == 0 {
			t.Errorf("%s: lane crash triggered no failover re-placement", m.name)
		}
		if res.Requests == 0 || res.Jobs == 0 {
			t.Errorf("%s: served nothing (%d requests, %d jobs)", m.name, res.Requests, res.Jobs)
		}
	}
}

// TestGPUCrashRecoveryUnderAudit drives both crash and recovery at
// certainty over three periods: recovery events must fire and the
// liveness transitions must satisfy the auditor (recovered lanes were
// dead, crashed lanes alive, the mask consistent at every boundary).
func TestGPUCrashRecoveryUnderAudit(t *testing.T) {
	fc := &faults.Config{Seed: 5, GPUCrash: 1, GPURecover: 1, GPUCrashMax: 1}
	var rep audit.Report
	cfg := crashConfig(t, 2, fc)
	cfg.Horizon = 150 * time.Second // 3 periods: crash, then recover+re-crash
	cfg.AuditReport = &rep
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Error(rep.Err())
	}
	if res.FaultGPUCrashes < 2 {
		t.Errorf("%d crashes over 3 periods at certainty", res.FaultGPUCrashes)
	}
	if res.FaultGPURecoveries == 0 {
		t.Error("certain recovery schedule recovered no lane")
	}
}

// TestMetamorphicGPUCrashDeterminism asserts the whole failover path —
// crash schedule, re-pack, admission gate, shedding — is a pure
// function of the seeds: repeated runs are bit-identical, non-vacuously.
func TestMetamorphicGPUCrashDeterminism(t *testing.T) {
	fc := &faults.Config{Seed: 5, GPUCrash: 1, GPUCrashMax: 1}
	run := func() *Result {
		t.Helper()
		cfg := crashConfig(t, 2, fc)
		cfg.Method = core.New(core.Options{})
		cfg.Audit = true
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	sameResult(t, "same crash schedule, repeated", a, b)
	if a.FaultGPUCrashes == 0 {
		t.Error("no crash fired; determinism check is vacuous")
	}
}

// TestGPUCrashSheddingUnderAudit overloads a small sharded server so
// the post-crash feasibility gate must fail: requests are shed and
// retraining suspended, yet the run stays audit-clean — shedding only
// in the degraded-admission state, admitted fractions within the lane
// capacity, conservation closed (shed requests counted missed).
func TestGPUCrashSheddingUnderAudit(t *testing.T) {
	fc := &faults.Config{Seed: 5, GPUCrash: 1, GPUCrashMax: 1}
	var rep audit.Report
	cfg := crashConfig(t, 2, fc)
	cfg.GPUs = 0.5 // two 0.25-amount lanes: one cannot absorb both apps
	cfg.RatePerApp = 600
	cfg.Method = core.New(core.Options{})
	cfg.AuditReport = &rep
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Error(rep.Err())
	}
	if res.FaultShedRequests == 0 {
		t.Fatal("overloaded post-crash lane shed nothing; gate never failed")
	}
	if res.FaultSuspendedRetrainPeriods == 0 {
		t.Error("infeasible lane suspended no retraining")
	}
}

// TestGPUCrashSingleLaneInvisible pins the NGPUs = 1 contract: a
// single-partition server has no lane to crash, so a gpu-crash fault
// config is byte-identical to running with no faults at all.
func TestGPUCrashSingleLaneInvisible(t *testing.T) {
	base := faultConfig(t, nil)
	base.Method = core.New(core.Options{})
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	crashed := faultConfig(t, &faults.Config{Seed: 5, GPUCrash: 1})
	crashed.Method = core.New(core.Options{})
	withCrash, err := Run(crashed)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "single lane, gpu-crash vs no faults", plain, withCrash)
	if withCrash.FaultGPUCrashes != 0 || withCrash.FaultReplacements != 0 ||
		withCrash.FaultShedRequests != 0 {
		t.Errorf("single-lane run reports lane-fault activity: %+v", withCrash)
	}
}
