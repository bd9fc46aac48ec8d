package metrics

import (
	"math"
	"testing"
	"time"

	"adainf/internal/simtime"
)

func sec(s float64) simtime.Instant {
	return simtime.Instant(time.Duration(s * float64(time.Second)))
}

func newRec(t *testing.T) *Recorder {
	t.Helper()
	r, err := NewRecorder(100*time.Second, 50*time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRecorderValidation(t *testing.T) {
	bad := []struct {
		name            string
		horizon, period simtime.Duration
		gpus            float64
	}{
		{"zero horizon", 0, time.Second, 1},
		{"negative horizon", -100 * time.Second, time.Second, 1},
		{"zero period", time.Second, 0, 1},
		{"zero GPUs", time.Second, time.Second, 0},
		{"negative GPUs", time.Second, time.Second, -1},
		{"NaN GPUs", time.Second, time.Second, math.NaN()},
	}
	for _, c := range bad {
		r, err := NewRecorder(c.horizon, c.period, c.gpus)
		if err == nil || r != nil {
			t.Errorf("%s: got (%v, %v), want an error", c.name, r, err)
		}
	}
}

func TestAccuracyPerPeriod(t *testing.T) {
	r := newRec(t)
	// Period 0: 3 correct of 4. Period 1: 1 of 2.
	for i := 0; i < 3; i++ {
		r.RecordPrediction(sec(10), true, false)
	}
	r.RecordPrediction(sec(10), false, false)
	r.RecordPrediction(sec(60), true, true)
	r.RecordPrediction(sec(60), false, false)
	acc := r.PeriodAccuracy()
	if len(acc) != 2 {
		t.Fatalf("periods = %d", len(acc))
	}
	if acc[0] != 0.75 || acc[1] != 0.5 {
		t.Fatalf("acc = %v", acc)
	}
	if got := r.MeanAccuracy(); math.Abs(got-4.0/6) > 1e-12 {
		t.Fatalf("MeanAccuracy = %v", got)
	}
	upd := r.UpdatedModelFraction()
	if upd[0] != 0 || upd[1] != 0.5 {
		t.Fatalf("updated = %v", upd)
	}
}

func TestFinishRate(t *testing.T) {
	r := newRec(t)
	r.RecordRequest(sec(1.2), true)
	r.RecordRequest(sec(1.7), false)
	r.RecordRequest(sec(2.3), true)
	fr := r.FinishRateWindows()
	if fr[1] != 0.5 || fr[2] != 1 {
		t.Fatalf("finish rate windows = [%v %v]", fr[1], fr[2])
	}
	if got := r.MeanFinishRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("MeanFinishRate = %v", got)
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := newRec(t)
	if r.MeanAccuracy() != 0 || r.MeanFinishRate() != 0 {
		t.Fatal("empty recorder non-zero means")
	}
	if r.MeanInferLatencyMs() != 0 || r.MeanRetrainLatencyMs() != 0 {
		t.Fatal("empty latencies non-zero")
	}
}

func TestBusyAccounting(t *testing.T) {
	r := newRec(t)
	// 0.5 GPUs busy for 2 s spanning a bucket boundary at 1 s.
	r.RecordBusy(sec(0.5), sec(2.5), 0.5)
	u := r.UtilizationPerSecond()
	// Bucket 0: 0.5 s × 0.5 / 4 GPUs = 0.0625.
	if math.Abs(u[0]-0.0625) > 1e-9 {
		t.Fatalf("u[0] = %v", u[0])
	}
	// Bucket 1: full second × 0.5 / 4.
	if math.Abs(u[1]-0.125) > 1e-9 {
		t.Fatalf("u[1] = %v", u[1])
	}
	if math.Abs(u[2]-0.0625) > 1e-9 {
		t.Fatalf("u[2] = %v", u[2])
	}
	// Degenerate inputs are ignored.
	r.RecordBusy(sec(5), sec(5), 1)
	r.RecordBusy(sec(6), sec(5), 1)
	r.RecordBusy(sec(5), sec(6), 0)
	if r.UtilizationPerSecond()[5] != 0 {
		t.Fatal("degenerate busy recorded")
	}
}

func TestUtilizationClamped(t *testing.T) {
	r := newRec(t)
	r.RecordBusy(sec(0), sec(1), 100) // implausible over-commit
	if got := r.UtilizationPerSecond()[0]; got != 1 {
		t.Fatalf("utilization not clamped: %v", got)
	}
}

func TestJobLatencies(t *testing.T) {
	r := newRec(t)
	r.RecordJob(100*time.Millisecond, 50*time.Millisecond)
	r.RecordJob(200*time.Millisecond, 0) // no retraining → excluded from retrain mean
	if got := r.MeanInferLatencyMs(); got != 150 {
		t.Fatalf("MeanInferLatencyMs = %v", got)
	}
	if got := r.MeanRetrainLatencyMs(); got != 50 {
		t.Fatalf("MeanRetrainLatencyMs = %v", got)
	}
}

func TestRetrainEffort(t *testing.T) {
	r := newRec(t)
	r.SetPoolSize(0, 1000)
	r.SetPoolSize(0, 1000) // two nodes
	r.RecordRetrainEffort(sec(10), 2*time.Second, 500)
	r.RecordRetrainEffort(sec(20), time.Second, 300)
	if got := r.RetrainTimePerPeriodS()[0]; got != 3 {
		t.Fatalf("retrain time = %v", got)
	}
	if got := r.RetrainSampleFraction()[0]; got != 0.4 {
		t.Fatalf("sample fraction = %v", got)
	}
	// Fraction clamps at 1 even if bookkeeping over-counts.
	r.RecordRetrainEffort(sec(30), time.Second, 5000)
	if got := r.RetrainSampleFraction()[0]; got != 1 {
		t.Fatalf("fraction not clamped: %v", got)
	}
	// Out-of-range period is ignored.
	r.SetPoolSize(99, 10)
}

func TestOutOfHorizonGoesToOverflow(t *testing.T) {
	r := newRec(t)
	// Events beyond the horizon land in the overflow bucket; they must
	// not pollute the last period/window of the series.
	r.RecordPrediction(sec(500), true, true)
	r.RecordRequest(sec(500), true)
	acc := r.PeriodAccuracy()
	if acc[len(acc)-1] != 0 {
		t.Fatalf("overflow prediction leaked into last period: %v", acc)
	}
	fr := r.FinishRateWindows()
	if fr[len(fr)-1] != 0 {
		t.Fatalf("overflow request leaked into last window: %v", fr)
	}
	o := r.Overflow()
	if o.Predictions != 1 || o.Correct != 1 || o.Updated != 1 || o.Arrived != 1 || o.Finished != 1 {
		t.Fatalf("overflow = %+v", o)
	}
	// Aggregate means still conserve the overflow events.
	if got := r.MeanAccuracy(); got != 1 {
		t.Fatalf("MeanAccuracy = %v", got)
	}
	if got := r.MeanFinishRate(); got != 1 {
		t.Fatalf("MeanFinishRate = %v", got)
	}
}

func TestRetrainEffortPastHorizon(t *testing.T) {
	// Regression: a retraining completing past the horizon used to be
	// clamped into the last period, inflating its Fig. 7b series.
	r := newRec(t) // horizon 100 s, period 50 s → 2 periods
	r.SetPoolSize(1, 1000)
	r.RecordRetrainEffort(sec(75), 2*time.Second, 400)
	r.RecordRetrainEffort(sec(130), 5*time.Second, 600) // past the horizon
	times := r.RetrainTimePerPeriodS()
	if times[1] != 2 {
		t.Fatalf("last period retrain time = %v, want 2 (overflow excluded)", times[1])
	}
	if got := r.RetrainSampleFraction()[1]; got != 0.4 {
		t.Fatalf("last period sample fraction = %v, want 0.4", got)
	}
	o := r.Overflow()
	if o.RetrainTimeS != 5 || o.RetrainSamples != 600 {
		t.Fatalf("overflow retrain effort = %+v", o)
	}
}

func TestValidityMasks(t *testing.T) {
	r := newRec(t)
	r.RecordPrediction(sec(10), true, false)
	r.RecordRequest(sec(10), true)
	pm := r.PeriodsWithPredictions()
	if !pm[0] || pm[1] {
		t.Fatalf("period mask = %v", pm)
	}
	wm := r.WindowsWithArrivals()
	if !wm[10] {
		t.Fatal("window 10 should be valid")
	}
	n := 0
	for _, ok := range wm {
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d valid windows, want 1", n)
	}
}

func TestRecordBusySpansWindows(t *testing.T) {
	r := newRec(t)
	// 2 GPUs busy for 2.5 s starting mid-window: [10.5 s, 13 s).
	r.RecordBusy(sec(10.5), sec(13), 2)
	busy := r.UtilizationPerSecond() // gpus = 4 → busy/4
	want := []struct {
		w int
		u float64
	}{{10, 0.25}, {11, 0.5}, {12, 0.5}, {13, 0}}
	for _, tc := range want {
		if got := busy[tc.w]; math.Abs(got-tc.u) > 1e-12 {
			t.Errorf("window %d utilization = %v, want %v", tc.w, got, tc.u)
		}
	}
	if o := r.Overflow(); o.BusyGPUSeconds != 0 {
		t.Fatalf("unexpected busy overflow: %+v", o)
	}
}

func TestRecordBusyStraddlesHorizon(t *testing.T) {
	r := newRec(t) // horizon 100 s → windows [0, 101)
	// A span reaching past the last window is prorated: the in-horizon
	// part fills its bucket, the spill accrues to overflow.
	r.RecordBusy(sec(100.5), sec(102.5), 1)
	if got := r.busyPerS[100]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("window 100 busy = %v, want 0.5", got)
	}
	if o := r.Overflow(); math.Abs(o.BusyGPUSeconds-1.5) > 1e-12 {
		t.Fatalf("busy overflow = %v, want 1.5", o.BusyGPUSeconds)
	}
	// Entirely past the horizon: all overflow, no window touched.
	r2 := newRec(t)
	r2.RecordBusy(sec(200), sec(203), 2)
	if o := r2.Overflow(); math.Abs(o.BusyGPUSeconds-6) > 1e-12 {
		t.Fatalf("busy overflow = %v, want 6", o.BusyGPUSeconds)
	}
	for i, b := range r2.busyPerS {
		if b != 0 {
			t.Fatalf("window %d busy = %v, want 0", i, b)
		}
	}
}

func TestUtilizationOvershoot(t *testing.T) {
	r := newRec(t)
	r.RecordBusy(sec(10), sec(11), 3) // u = 0.75
	if max, n := r.UtilizationOvershoot(); max != 0.75 || n != 0 {
		t.Fatalf("overshoot = %v/%d, want 0.75/0", max, n)
	}
	// Over-accounted window: busy 6 GPU-s on 4 GPUs → raw u = 1.5, but
	// the reported series clamps to 1.
	r.RecordBusy(sec(20), sec(21), 6)
	r.RecordBusy(sec(30), sec(31), 5)
	if got := r.UtilizationPerSecond()[20]; got != 1 {
		t.Fatalf("clamped utilization = %v, want 1", got)
	}
	if max, n := r.UtilizationOvershoot(); max != 1.5 || n != 2 {
		t.Fatalf("overshoot = %v/%d, want 1.5/2", max, n)
	}
}
