// Package metrics collects the evaluation metrics of §5: per-period
// inference accuracy, SLO finish rate over 1 s windows, inference and
// retraining latencies, GPU utilization per second, and the fraction
// of requests served by an updated model (Fig. 4b).
package metrics

import (
	"fmt"
	"time"

	"adainf/internal/mathx"
	"adainf/internal/simtime"
)

// Recorder accumulates metrics during one serving run. It is not safe
// for concurrent use.
type Recorder struct {
	period  simtime.Duration
	horizon simtime.Duration
	gpus    float64

	// Per-period accuracy: one correct/total pair per leaf prediction.
	correct []int
	total   []int
	// Per-period count of predictions that used an updated model.
	updated []int

	// Finish rate per 1 s window.
	finished  []int
	arrived   []int
	busyPerS  []float64 // busy GPU-seconds per 1 s bucket
	inferMs   []float64
	retrainMs []float64

	// Per-period retraining effort (Fig. 7b).
	retrainTimeS   []float64
	retrainSamples []int
	poolSamples    []int

	// overflow collects events stamped outside [0, horizon): they are
	// excluded from every per-period/per-window series (clamping them
	// into the last bucket would silently pollute its accuracy, finish
	// rate, and utilization) but still count toward the aggregate
	// means, which must conserve every request.
	overflow Overflow
}

// Overflow aggregates the events that landed outside the recorder's
// horizon (e.g. a retraining completing past the last period). The
// per-period and per-window series exclude them; the aggregate means
// include them.
type Overflow struct {
	// Predictions/Correct/Updated are out-of-horizon leaf predictions.
	Predictions, Correct, Updated int
	// Arrived/Finished are out-of-horizon request SLO outcomes.
	Arrived, Finished int
	// RetrainTimeS and RetrainSamples are out-of-horizon retraining
	// effort.
	RetrainTimeS   float64
	RetrainSamples int
	// BusyGPUSeconds is GPU busy time accrued beyond the last 1 s
	// utilization window.
	BusyGPUSeconds float64
}

// Overflow returns the out-of-horizon event totals.
func (r *Recorder) Overflow() Overflow { return r.overflow }

// NewRecorder sizes the metric buckets for a run of the given horizon.
// It rejects a non-positive horizon, period or GPU count.
func NewRecorder(horizon, period simtime.Duration, gpus float64) (*Recorder, error) {
	if horizon <= 0 || period <= 0 || !(gpus > 0) {
		return nil, fmt.Errorf("metrics: recorder needs positive horizon, period and GPUs (got %v, %v, %g)", horizon, period, gpus)
	}
	nPeriods := int((horizon + period - 1) / period)
	nSeconds := int(horizon/time.Second) + 1
	return &Recorder{
		period:         period,
		horizon:        horizon,
		gpus:           gpus,
		correct:        make([]int, nPeriods),
		total:          make([]int, nPeriods),
		updated:        make([]int, nPeriods),
		finished:       make([]int, nSeconds),
		arrived:        make([]int, nSeconds),
		busyPerS:       make([]float64, nSeconds),
		retrainTimeS:   make([]float64, nPeriods),
		retrainSamples: make([]int, nPeriods),
		poolSamples:    make([]int, nPeriods),
	}, nil
}

// periodIndex maps t to its period bucket, or -1 when t falls outside
// the horizon (the caller routes those to the overflow bucket rather
// than polluting the last period).
func (r *Recorder) periodIndex(t simtime.Instant) int {
	i := int(t.Duration() / r.period)
	if i < 0 || i >= len(r.correct) {
		return -1
	}
	return i
}

// secondIndex maps t to its 1 s window, or -1 when t falls outside the
// recorded windows.
func (r *Recorder) secondIndex(t simtime.Instant) int {
	i := int(t.Duration() / time.Second)
	if i < 0 || i >= len(r.finished) {
		return -1
	}
	return i
}

// RecordPrediction records one leaf-model prediction of a request.
func (r *Recorder) RecordPrediction(t simtime.Instant, correct, usedUpdatedModel bool) {
	p := r.periodIndex(t)
	if p < 0 {
		r.overflow.Predictions++
		if correct {
			r.overflow.Correct++
		}
		if usedUpdatedModel {
			r.overflow.Updated++
		}
		return
	}
	r.total[p]++
	if correct {
		r.correct[p]++
	}
	if usedUpdatedModel {
		r.updated[p]++
	}
}

// RecordRequest records one request's SLO outcome in its arrival
// window.
func (r *Recorder) RecordRequest(arrival simtime.Instant, metSLO bool) {
	w := r.secondIndex(arrival)
	if w < 0 {
		r.overflow.Arrived++
		if metSLO {
			r.overflow.Finished++
		}
		return
	}
	r.arrived[w]++
	if metSLO {
		r.finished[w]++
	}
}

// RecordJob records one executed job's latency decomposition.
func (r *Recorder) RecordJob(inferLat, retrainLat simtime.Duration) {
	r.inferMs = append(r.inferMs, inferLat.Seconds()*1e3)
	if retrainLat > 0 {
		r.retrainMs = append(r.retrainMs, retrainLat.Seconds()*1e3)
	}
}

// RecordBusy accounts GPU occupancy: amount GPUs busy during [from, to).
// The span is prorated across the 1 s windows it overlaps; any part
// outside the recorded windows accrues to the overflow bucket instead
// of a clamped window.
func (r *Recorder) RecordBusy(from, to simtime.Instant, amount float64) {
	if !to.After(from) || amount <= 0 {
		return
	}
	end := simtime.Instant(time.Duration(len(r.busyPerS)) * time.Second)
	if to.After(end) {
		lo := from
		if end.After(lo) {
			lo = end
		}
		r.overflow.BusyGPUSeconds += to.Sub(lo).Seconds() * amount
	}
	if from.Before(0) {
		hi := to
		if hi.After(0) {
			hi = 0
		}
		r.overflow.BusyGPUSeconds += hi.Sub(from).Seconds() * amount
	}
	wFrom := int(from.Duration() / time.Second)
	if wFrom < 0 {
		wFrom = 0
	}
	for w := wFrom; w < len(r.busyPerS); w++ {
		bucketStart := simtime.Instant(time.Duration(w) * time.Second)
		if !to.After(bucketStart) {
			break
		}
		bucketEnd := bucketStart.Add(time.Second)
		lo, hi := from, to
		if bucketStart.After(lo) {
			lo = bucketStart
		}
		if hi.After(bucketEnd) {
			hi = bucketEnd
		}
		if hi.After(lo) {
			r.busyPerS[w] += hi.Sub(lo).Seconds() * amount
		}
	}
}

// RecordRetrainEffort accounts retraining time and samples of a period
// (Fig. 7b). Effort stamped outside the horizon (e.g. a retraining
// completing past the last period) lands in the overflow bucket, not
// the last period's series.
func (r *Recorder) RecordRetrainEffort(t simtime.Instant, d simtime.Duration, samples int) {
	p := r.periodIndex(t)
	if p < 0 {
		r.overflow.RetrainTimeS += d.Seconds()
		r.overflow.RetrainSamples += samples
		return
	}
	r.retrainTimeS[p] += d.Seconds()
	r.retrainSamples[p] += samples
}

// SetPoolSize records the total retraining pool of a period, the
// denominator of the %-samples series of Fig. 7b.
func (r *Recorder) SetPoolSize(period, samples int) {
	if period >= 0 && period < len(r.poolSamples) {
		r.poolSamples[period] += samples
	}
}

// PeriodAccuracy returns the accuracy of each period ∈ [0, 1]. Periods
// with no predictions report 0.
func (r *Recorder) PeriodAccuracy() []float64 {
	out := make([]float64, len(r.total))
	for i := range out {
		if r.total[i] > 0 {
			out[i] = float64(r.correct[i]) / float64(r.total[i])
		}
	}
	return out
}

// MeanAccuracy returns the overall accuracy across every prediction,
// including out-of-horizon overflow (the aggregate must conserve every
// request).
func (r *Recorder) MeanAccuracy() float64 {
	c, t := r.overflow.Correct, r.overflow.Predictions
	for i := range r.total {
		c += r.correct[i]
		t += r.total[i]
	}
	if t == 0 {
		return 0
	}
	return float64(c) / float64(t)
}

// UpdatedModelFraction returns, per period, the fraction of
// predictions that used a model retrained within the period (Fig. 4b).
// Periods with no predictions report 0; aggregate over the series with
// PeriodsWithPredictions so empty periods do not dilute the mean.
func (r *Recorder) UpdatedModelFraction() []float64 {
	out := make([]float64, len(r.total))
	for i := range out {
		if r.total[i] > 0 {
			out[i] = float64(r.updated[i]) / float64(r.total[i])
		}
	}
	return out
}

// PeriodsWithPredictions returns the validity mask of the per-period
// series (PeriodAccuracy, UpdatedModelFraction): true where the period
// observed at least one prediction.
func (r *Recorder) PeriodsWithPredictions() []bool {
	out := make([]bool, len(r.total))
	for i := range out {
		out[i] = r.total[i] > 0
	}
	return out
}

// FinishRateWindows returns the finish rate of each 1 s window.
// Windows without arrivals report 0 and carry no information;
// aggregate over the series with WindowsWithArrivals so they do not
// dilute the mean (MeanFinishRate already weights by arrivals).
func (r *Recorder) FinishRateWindows() []float64 {
	out := make([]float64, len(r.arrived))
	for i := range out {
		if r.arrived[i] > 0 {
			out[i] = float64(r.finished[i]) / float64(r.arrived[i])
		}
	}
	return out
}

// WindowsWithArrivals returns the validity mask of FinishRateWindows:
// true where the window observed at least one arrival.
func (r *Recorder) WindowsWithArrivals() []bool {
	out := make([]bool, len(r.arrived))
	for i := range out {
		out[i] = r.arrived[i] > 0
	}
	return out
}

// MeanFinishRate returns the overall finish rate across every request,
// including out-of-horizon overflow.
func (r *Recorder) MeanFinishRate() float64 {
	f, a := r.overflow.Finished, r.overflow.Arrived
	for i := range r.arrived {
		f += r.finished[i]
		a += r.arrived[i]
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// UtilizationPerSecond returns GPU utilization ∈ [0, 1] per second.
// Windows whose accounted busy time exceeds capacity are clamped to 1
// in the series; the raw overshoot is surfaced by
// UtilizationOvershoot so over-accounting is never silently hidden.
func (r *Recorder) UtilizationPerSecond() []float64 {
	out := make([]float64, len(r.busyPerS))
	for i, b := range r.busyPerS {
		u := b / r.gpus
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// UtilizationOvershoot reports busy-time over-accounting: the maximum
// raw (unclamped) utilization across the 1 s windows and how many
// windows exceeded 1. A max of 0 means no window had any busy time.
func (r *Recorder) UtilizationOvershoot() (max float64, windows int) {
	for _, b := range r.busyPerS {
		u := b / r.gpus
		if u > max {
			max = u
		}
		if u > 1 {
			windows++
		}
	}
	return max, windows
}

// MeanInferLatencyMs returns the mean job inference latency.
func (r *Recorder) MeanInferLatencyMs() float64 { return mathx.MeanOf(r.inferMs) }

// MeanRetrainLatencyMs returns the mean per-job retraining latency
// among jobs that retrained.
func (r *Recorder) MeanRetrainLatencyMs() float64 { return mathx.MeanOf(r.retrainMs) }

// RetrainTimePerPeriodS returns retraining seconds per period (Fig. 7b).
func (r *Recorder) RetrainTimePerPeriodS() []float64 {
	return append([]float64(nil), r.retrainTimeS...)
}

// RetrainSampleFraction returns the fraction of each period's pool that
// was used for retraining (Fig. 7b).
func (r *Recorder) RetrainSampleFraction() []float64 {
	out := make([]float64, len(r.retrainSamples))
	for i := range out {
		if r.poolSamples[i] > 0 {
			f := float64(r.retrainSamples[i]) / float64(r.poolSamples[i])
			if f > 1 {
				f = 1
			}
			out[i] = f
		}
	}
	return out
}
