package experiments

import (
	"fmt"
	"sync"
	"time"

	"adainf/internal/app"
	"adainf/internal/dnn"
	"adainf/internal/drift"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/mathx"
	"adainf/internal/profile"
	"adainf/internal/simtime"
)

// vsInstance builds a fresh video-surveillance instance for the
// model-level analyses of §2.
func vsInstance(o Options) (*app.Instance, error) {
	return app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{
		Seed: o.Seed, PoolSamples: o.pool,
	})
}

// Fig5 reproduces Fig. 5: per-model accuracy of the video-surveillance
// application across periods, with and without retraining. The
// retraining arm emulates AdaInf's drift-aware incremental retraining
// at the model level (full pool for impacted models). The two arms use
// independent instances, so they run as two engine jobs.
func Fig5(o Options) (*Result, error) {
	o.fill()
	periods := int(o.Horizon / (50 * time.Second))
	nodes := []string{"object-detection", "vehicle-type", "person-activity"}
	withRetraining := func() (map[string][]float64, error) {
		inst, err := vsInstance(o)
		if err != nil {
			return nil, err
		}
		series := make(map[string][]float64, len(nodes))
		var sc drift.Scratch
		for p := 0; p < periods; p++ {
			// Drift detection and incremental retraining run at the start
			// of the period, before its requests are served (§3.2).
			reports, err := sc.DetectApp(inst, drift.Config{})
			if err != nil {
				return nil, err
			}
			for _, name := range nodes {
				ni := inst.ByName[name]
				if rep := reports[name]; rep.Impacted {
					pd, err := ni.PoolDist()
					if err != nil {
						return nil, err
					}
					ni.State.Train(pd, float64(ni.Pool.Len())*dnn.DivergentSelectionBoost)
					ni.NoteTrained()
				}
			}
			for _, name := range nodes {
				ni := inst.ByName[name]
				series[name] = append(series[name], ni.State.Accuracy(ni.LiveDist()))
			}
			inst.AdvancePeriod(0)
		}
		return series, nil
	}
	withoutRetraining := func() (map[string][]float64, error) {
		inst, err := vsInstance(o)
		if err != nil {
			return nil, err
		}
		series := make(map[string][]float64, len(nodes))
		for p := 0; p < periods; p++ {
			for _, name := range nodes {
				ni := inst.ByName[name]
				series[name] = append(series[name], ni.State.Accuracy(ni.LiveDist()))
			}
			inst.AdvancePeriod(0)
		}
		return series, nil
	}
	arms, err := collect(o.Workers, []func() (map[string][]float64, error){
		withRetraining, withoutRetraining,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig5", Title: "Impact of data drift on each model of the application"}
	for _, name := range nodes {
		res.Series = append(res.Series,
			Series{Label: name + " w/ retraining", X: periodsX(periods), Y: arms[0][name]},
			Series{Label: name + " w/o retraining", X: periodsX(periods), Y: arms[1][name]},
		)
	}
	res.Notes = append(res.Notes,
		"object detection holds its accuracy (Observation 2); vehicle-type degrades most (Observation 3)")
	return res, nil
}

// Fig6 reproduces Fig. 6: the Jensen–Shannon divergence of each task's
// class-label distribution between consecutive periods.
func Fig6(o Options) (*Result, error) {
	o.fill()
	periods := int(o.Horizon / (50 * time.Second))
	inst, err := vsInstance(o)
	if err != nil {
		return nil, err
	}
	for p := 0; p < periods; p++ {
		inst.AdvancePeriod(0)
	}
	res := &Result{ID: "fig6", Title: "Change in data distribution across time (JS divergence)"}
	var detSum, vehSum, perSum float64
	for _, ni := range inst.Nodes() {
		ys := make([]float64, periods)
		for p := 1; p <= periods; p++ {
			ys[p-1] = ni.Stream.PeriodDivergence(p)
		}
		res.Series = append(res.Series, Series{Label: ni.Node.Name, X: periodsX(periods), Y: ys})
		switch ni.Node.Name {
		case "object-detection":
			detSum = sum(ys)
		case "vehicle-type":
			vehSum = sum(ys)
		case "person-activity":
			perSum = sum(ys)
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"cumulative JS: detection %.4f, vehicle %.3f, person %.3f — detection ~static, vehicle > person (Fig. 6)",
		detSum, vehSum, perSum))
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// vsFullProfiles returns the video-surveillance profile under AdaInf's
// memory configuration.
func vsFullProfiles() (*profile.AppProfile, error) {
	profs, err := profilesFor([]*app.App{app.VideoSurveillance()}, adaMemory(0.4), "", false)
	if err != nil {
		return nil, err
	}
	return profs["video-surveillance"], nil
}

// appWorstCase sums the worst-case latency of the full structures of
// all three models.
func appWorstCase(ap *profile.AppProfile, batch, requests int, fraction float64) (time.Duration, error) {
	var total time.Duration
	for _, t := range ap.Tables() {
		wc, err := worstCase(t, t.FullIdx(), batch, requests, fraction)
		if err != nil {
			return 0, err
		}
		total += wc
	}
	return total, nil
}

// worstCase is the worst-case latency of running the requests through
// structure si in batches of the given size, each at the per-batch
// latency for the fraction (§3.3.1).
func worstCase(t *profile.Table, si, batch, requests int, fraction float64) (time.Duration, error) {
	per, err := perBatch(t, si, batch, fraction)
	return per * time.Duration((requests+batch-1)/batch), err
}

// perBatch is structure si's per-batch latency at the batch size and
// fraction.
func perBatch(t *profile.Table, si, batch int, fraction float64) (time.Duration, error) {
	bi := t.BatchIdx(batch)
	if bi < 0 {
		return 0, fmt.Errorf("batch %d not profiled for %s", batch, t.Node())
	}
	return t.PerBatch(si, bi, fraction)
}

// Fig8 reproduces Fig. 8: average per-batch latency and worst-case
// latency per request batch size on a full GPU.
func Fig8(Options) (*Result, error) {
	ap, err := vsFullProfiles()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig8", Title: "Latency at a time session vs request batch size"}
	tb := Table{Header: []string{"batch", "per-batch (ms)", "worst-case (ms, 32 requests)"}}
	bestBatch, bestWC := 0, time.Duration(0)
	for _, b := range profile.DefaultBatchSizes {
		var per time.Duration
		for _, t := range ap.Tables() {
			p, err := perBatch(t, t.FullIdx(), b, 1.0)
			if err != nil {
				return nil, err
			}
			per += p
		}
		wc, err := appWorstCase(ap, b, 32, 1.0)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f", per.Seconds()*1e3),
			fmt.Sprintf("%.1f", wc.Seconds()*1e3),
		})
		if bestBatch == 0 || wc < bestWC {
			bestBatch, bestWC = b, wc
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes, fmt.Sprintf("optimal batch size %d (paper: 16)", bestBatch))
	return res, nil
}

// Fig9 reproduces Fig. 9: worst-case latency per batch size as the
// allocated GPU space varies.
func Fig9(Options) (*Result, error) {
	ap, err := vsFullProfiles()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig9", Title: "Latency at a time session with varying GPU space"}
	tb := Table{Header: append([]string{"GPU space"}, intHeaders(profile.DefaultBatchSizes)...)}
	var optima []string
	for _, f := range profile.DefaultFractions {
		row := []string{fmt.Sprintf("%.0f%%", f*100)}
		bestBatch, bestWC := 0, time.Duration(0)
		for _, b := range profile.DefaultBatchSizes {
			wc, err := appWorstCase(ap, b, 32, f)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", wc.Seconds()*1e3))
			if bestBatch == 0 || wc < bestWC {
				bestBatch, bestWC = b, wc
			}
		}
		tb.Rows = append(tb.Rows, row)
		optima = append(optima, fmt.Sprintf("%.0f%%→%d", f*100, bestBatch))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"optimal batch per GPU space: "+fmt.Sprint(optima)+" (paper: 25%→4, 50%→8, 75%→16, 100%→16)")
	return res, nil
}

// Fig10 reproduces Fig. 10: worst-case latency per batch size for the
// full structure and three early-exit structures of the application.
func Fig10(Options) (*Result, error) {
	ap, err := vsFullProfiles()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig10", Title: "Latency at a time session with varying structures"}
	// The application structure is fixed by the detector's structure;
	// the recognizers scale proportionally. We follow the paper and
	// pick the full structure plus three exits of the detection model.
	det := ap.Tables()[0] // object-detection
	picks := []int{
		det.FullIdx(), // full
		1,             // exit@6
		3,             // exit@12
		5,             // exit@18
	}
	tb := Table{Header: append([]string{"structure"}, intHeaders(profile.DefaultBatchSizes)...)}
	for _, si := range picks {
		row := []string{det.Structure(si).String()}
		bestBatch, bestWC := 0, time.Duration(0)
		for _, b := range profile.DefaultBatchSizes {
			wc, err := worstCase(det, si, b, 32, 1.0)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", wc.Seconds()*1e3))
			if bestBatch == 0 || wc < bestWC {
				bestBatch, bestWC = b, wc
			}
		}
		row = append(row, fmt.Sprintf("(opt %d)", bestBatch))
		tb.Rows = append(tb.Rows, row)
	}
	tb.Header = append(tb.Header, "optimum")
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes, "the optimal batch size depends on the structure (Observation 6)")
	return res, nil
}

// Fig11 reproduces Fig. 11: the decomposition of per-batch latency into
// CPU–GPU communication time and GPU computation time.
func Fig11(Options) (*Result, error) {
	ap, err := vsFullProfiles()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig11", Title: "Per-batch latency decomposition (communication vs computation)"}
	tb := Table{Header: []string{"batch", "total (ms)", "comm (ms)", "comm share"}}
	det := ap.Tables()[0] // object-detection
	full, fi := det.FullIdx(), det.FracIdx(1.0)
	if fi < 0 {
		return nil, fmt.Errorf("fig11: no full-GPU cells profiled")
	}
	// commShare is the communication share of per-batch latency at the
	// full structure's measured full-GPU cell for the batch size.
	commShare := func(b int) (per, comm time.Duration, share float64, err error) {
		bi := det.BatchIdx(b)
		if bi < 0 {
			return 0, 0, 0, fmt.Errorf("fig11: batch %d not profiled", b)
		}
		per, comm = det.Cell(full, bi, fi)
		if per > 0 {
			share = float64(comm) / float64(per)
		}
		return per, comm, share, nil
	}
	for _, b := range profile.DefaultBatchSizes {
		per, comm, cf, err := commShare(b)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f", per.Seconds()*1e3),
			fmt.Sprintf("%.1f", comm.Seconds()*1e3),
			fmt.Sprintf("%.0f%%", cf*100),
		})
	}
	res.Tables = append(res.Tables, tb)
	_, _, cf16, _ := commShare(16)
	res.Notes = append(res.Notes,
		fmt.Sprintf("communication is %.0f%% of per-batch latency at the optimal batch (paper: ~24%%)", cf16*100))
	return res, nil
}

// memTrace executes a few video-surveillance jobs (incremental
// retraining followed by the three inference tasks, then the next job)
// on one simulated partition, so reuse-time samples accumulate. Each
// job arrives 60 ms after the previous one finishes. The trace is
// deterministic and read-only once built, so Fig. 12 and Fig. 13 share
// one run.
var memTrace = sync.OnceValues(buildMemTrace)

func buildMemTrace() (*gpumem.Manager, error) {
	part := gpu.NewPartition(1.0, gpu.PartitionConfig{
		MemShare: profile.DefaultMemShare,
		Policy:   gpumem.PriorityPolicy{Alpha: 0.4},
	})
	ex := gpu.NewExecutor(part, gpu.Strategy{MaximizeUsage: true})
	detArch, _ := dnn.ByName("TinyYOLOv3")
	vehArch, _ := dnn.ByName("MobileNetV2")
	actArch, _ := dnn.ByName("ShuffleNet")

	// runJob executes one job's retraining-inference chain starting at
	// its arrival instant and returns its end time.
	runJob := func(start simtime.Instant, job uint64) (simtime.Instant, error) {
		now := start
		for _, arch := range []*dnn.Arch{vehArch, actArch} {
			_, end, err := ex.RunRetraining(now, gpu.RetrainTask{
				App: "vs", JobID: job, Arch: arch, Samples: 16, BatchSize: 16, SLOms: 400,
			})
			if err != nil {
				return now, err
			}
			now = end
		}
		det, err := ex.RunInference(now, gpu.InferenceTask{
			App: "vs", JobID: job, Structure: dnn.FullStructure(detArch), Batch: 16, SLOms: 400,
		})
		if err != nil {
			return now, err
		}
		now = det.End
		for _, arch := range []*dnn.Arch{vehArch, actArch} {
			r, err := ex.RunInference(now, gpu.InferenceTask{
				App: "vs", JobID: job, Structure: dnn.FullStructure(arch), Batch: 16, SLOms: 400,
				PrevOutputs:     []gpumem.ContentID{det.Output},
				PrevOutputBytes: []int64{1 << 20},
			})
			if err != nil {
				return now, err
			}
			now = r.End
		}
		ex.FinishJob("vs")
		return now, nil
	}

	now := simtime.Instant(0)
	for job := uint64(1); job <= 6; job++ {
		end, err := runJob(now, job)
		if err != nil {
			return nil, err
		}
		// The application's next job arrives 60 ms after this one
		// finishes (Fig. 13's cross-job gap).
		now = end.Add(60 * time.Millisecond)
	}
	return part.Mem(), nil
}

// Fig12 reproduces Fig. 12: the CDFs of memory-content reuse times (a)
// per data type and (b) across dependent tasks in the DAG.
func Fig12(Options) (*Result, error) {
	mem, err := memTrace()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig12", Title: "Reuse time latency of memory contents"}
	classes := []gpumem.ReuseClass{
		{Kind: gpumem.KindIntermediate, Phase: gpumem.PhaseInference},
		{Kind: gpumem.KindParam, Phase: gpumem.PhaseRetraining},
		{Kind: gpumem.KindIntermediate, Phase: gpumem.PhaseRetraining},
		{Kind: gpumem.KindParam, Phase: gpumem.PhaseInference},
	}
	tb := Table{Title: "(a) by data type", Header: []string{"type", "samples", "min (ms)", "median (ms)", "max (ms)"}}
	for _, class := range classes {
		tb.Rows = append(tb.Rows, cdfRow(class.String(), mem.ReuseCDF(class)))
	}
	res.Tables = append(res.Tables, tb)
	tb2 := Table{Title: "(b) across DAG tasks", Header: []string{"type", "samples", "min (ms)", "median (ms)", "max (ms)"}}
	for _, ck := range []gpumem.CrossKind{gpumem.CrossTaskIntermediate, gpumem.CrossTaskParam} {
		tb2.Rows = append(tb2.Rows, cdfRow(ck.String(), mem.CrossCDF(ck)))
	}
	res.Tables = append(res.Tables, tb2)
	res.Notes = append(res.Notes,
		"inference intermediates are reused soonest; inference parameters wait for the next job (Observation 8)")
	return res, nil
}

// Fig13 reproduces Fig. 13: the CDF of the reuse time of a job's
// parameters by the next job of the same application.
func Fig13(Options) (*Result, error) {
	mem, err := memTrace()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig13", Title: "Reuse time of parameters across jobs"}
	cdf := mem.CrossCDF(gpumem.CrossJobParam)
	tb := Table{Header: []string{"type", "samples", "min (ms)", "median (ms)", "max (ms)"}}
	tb.Rows = append(tb.Rows, cdfRow("cross-job params", cdf))
	res.Tables = append(res.Tables, tb)
	if cdf.N() > 0 {
		pts := cdf.Points(10)
		s := Series{Label: "cross-job param reuse CDF"}
		for _, p := range pts {
			s.X = append(s.X, p[0])
			s.Y = append(s.Y, p[1])
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"parameters are reused by the next job; intermediate outputs never are (Observation 9)")
	return res, nil
}

func cdfRow(label string, cdf *mathx.CDF) []string {
	if cdf.N() == 0 {
		return []string{label, "0", "-", "-", "-"}
	}
	return []string{
		label,
		fmt.Sprintf("%d", cdf.N()),
		fmt.Sprintf("%.3f", cdf.Min()),
		fmt.Sprintf("%.3f", cdf.Quantile(0.5)),
		fmt.Sprintf("%.3f", cdf.Max()),
	}
}

// Table2 reproduces Table 2: the determination of parameter S — which
// models the detector flags as the probe sample fraction S grows, and
// that the early stop agrees with scanning 100% of the samples.
func Table2(o Options) (*Result, error) {
	o.fill()
	inst, err := vsInstance(o)
	if err != nil {
		return nil, err
	}
	// Reach the second time period, as the paper does.
	inst.AdvancePeriod(0)
	inst.AdvancePeriod(0)
	var sc drift.Scratch
	res := &Result{ID: "table2", Title: "Determination of parameter S"}
	tb := Table{Header: []string{"model", "rounds (S: impacted?)", "stopped at", "full-scan agrees"}}
	for _, ni := range inst.Nodes() {
		rep, err := sc.DetectNode(ni, drift.Config{})
		if err != nil {
			return nil, err
		}
		var steps []string
		for _, r := range rep.Rounds {
			steps = append(steps, fmt.Sprintf("%.0f%%:%v", r.SFraction*100, r.Impacted))
		}
		// Verify against a full scan (S = 100%).
		fullRep, err := sc.DetectNode(ni, drift.Config{InitialS: 1, StepS: 1, StableRounds: 1})
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			ni.Node.Name,
			fmt.Sprint(steps),
			fmt.Sprintf("%.0f%%", rep.FinalS*100),
			fmt.Sprintf("%v", fullRep.Impacted == rep.Impacted),
		})
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"a borderline drift can legitimately flip between the concentrated early probe and the diluted 100% scan; clear impacts always agree")
	return res, nil
}
