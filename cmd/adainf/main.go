// Command adainf runs one edge-serving simulation and reports the §5
// metrics. It is the quickest way to compare scheduling methods on a
// custom setup.
//
// Usage:
//
//	adainf -method adainf -gpus 4 -apps 8 -rate 250 -horizon 500s
//
// Methods: adainf, adainf/i, adainf/u, adainf/s, adainf/e, adainf/m1,
// adainf/m2, ekya, scrooge, scrooge*, none (no retraining).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"adainf/internal/app"
	"adainf/internal/baselines"
	"adainf/internal/cliflags"
	"adainf/internal/core"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/mathx"
	"adainf/internal/sched"
	"adainf/internal/serving"
	"adainf/internal/telemetry"
)

func main() {
	var (
		methodName = flag.String("method", "adainf", "scheduling method (adainf, adainf/i, adainf/u, adainf/s, adainf/e, adainf/m1, adainf/m2, ekya, scrooge, scrooge*, none)")
		gpus       = flag.Float64("gpus", 4, "edge server GPU count")
		ngpus      = flag.Int("ngpus", 1, "GPU lanes to shard the server into (1 = unsharded; apps are placed onto lanes by working set and load)")
		nApps      = flag.Int("apps", 8, "number of concurrent applications")
		rate       = flag.Float64("rate", 250, "mean request rate per application (req/s)")
		horizon    = flag.Duration("horizon", 500*time.Second, "simulated duration")
		seed       = flag.Int64("seed", 1, "random seed")
		pool       = flag.Int("pool", 8000, "retraining pool per model per period")
		alpha      = flag.Float64("alpha", 0.4, "priority-eviction weight α (§3.4.2)")
		verbose    = flag.Bool("v", false, "print per-period series")
		tracePath  = flag.String("trace", "", "write the JSONL decision trace to this file (see DESIGN.md §10)")
		chromePath = flag.String("trace-chrome", "", "also convert the trace to a Chrome trace_event file for chrome://tracing or Perfetto (requires -trace)")
		histOn     = flag.Bool("hist", false, "collect latency histograms and report p50/p90/p99/p99.9")

		profileWorkers = flag.Int("profile-workers", 0,
			"offline-profiler work units measured concurrently (0 = one per CPU, 1 = serial; profiles are byte-identical either way)")
		faultSpec = flag.String("faults", "",
			"deterministic fault injection: \"default\" or comma-separated k=v "+
				"(retrain-fail, retrain-slow, slow-factor, retries, backoff, mem-fail, "+
				"burst, burst-factor, burst-sessions, drift-spike, spike-intensity, "+
				"gpu-crash, gpu-recover, gpu-crash-after, gpu-crash-max); empty = disabled")
		faultSeed = flag.Int64("fault-seed", 1,
			"seed of the fault injector (independent of -seed; identical seeds give byte-identical injections)")
	)
	flag.Parse()
	if *chromePath != "" && *tracePath == "" {
		fatal(fmt.Errorf("-trace-chrome requires -trace"))
	}
	faultCfg, faultErr := cliflags.Faults("-faults", *faultSpec, *faultSeed)
	if err := cliflags.First(
		cliflags.GPUAmount("-gpus", *gpus),
		cliflags.Lanes("-ngpus", *ngpus),
		cliflags.Rate("-rate", *rate, false),
		cliflags.Horizon("-horizon", *horizon, false),
		cliflags.Workers("-profile-workers", *profileWorkers),
		faultErr,
	); err != nil {
		fatal(err)
	}

	apps, err := app.CatalogN(*nApps)
	if err != nil {
		fatal(err)
	}
	method, strat, policy, retrain, divergent, err := buildMethod(*methodName, *alpha)
	if err != nil {
		fatal(err)
	}

	var (
		tel       *telemetry.Collector
		traceFile *os.File
	)
	if *histOn || *tracePath != "" {
		topt := telemetry.Options{Hist: *histOn}
		if *tracePath != "" {
			if traceFile, err = os.Create(*tracePath); err != nil {
				fatal(err)
			}
			topt.Trace = traceFile
		}
		tel = telemetry.New(topt)
	}

	pfw := *profileWorkers
	if pfw == 0 {
		pfw = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("profiling %d applications offline...\n", len(apps))
	start := time.Now()
	profiles, err := serving.BuildProfilesWith(apps, strat, policy, serving.ProfileBuildOptions{
		Telemetry: tel,
		Workers:   pfw,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("profiles ready in %v; simulating %v of serving...\n", time.Since(start).Round(time.Millisecond), *horizon)

	start = time.Now()
	res, err := serving.Run(serving.Config{
		Apps:               apps,
		Method:             method,
		GPUs:               *gpus,
		NGPUs:              *ngpus,
		Horizon:            *horizon,
		Seed:               *seed,
		RatePerApp:         *rate,
		Retraining:         retrain,
		DivergentSelection: divergent,
		MemStrategy:        strat,
		NewPolicy:          policy,
		PoolSamples:        *pool,
		Profiles:           profiles,
		Telemetry:          tel,
		Faults:             faultCfg,
	})
	if err != nil {
		fatal(err)
	}
	if err := tel.Close(); err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("\n%s on %g GPUs, %d apps, %.0f req/s/app, %v horizon (wall %v)\n",
		res.Method, *gpus, *nApps, *rate, *horizon, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  accuracy:        %.1f%%\n", res.MeanAccuracy*100)
	fmt.Printf("  finish rate:     %.1f%%\n", res.MeanFinishRate*100)
	fmt.Printf("  GPU utilization: %.0f%%\n", mathx.MeanOf(res.UtilizationPerSec)*100)
	for g, u := range res.PerGPUUtilization {
		fmt.Printf("    lane %d busy:   %.0f%%\n", g, u*100)
	}
	fmt.Printf("  inference/job:   %.1f ms\n", res.MeanInferLatencyMs)
	fmt.Printf("  retraining/job:  %.1f ms\n", res.MeanRetrainLatencyMs)
	fmt.Printf("  requests served: %d in %d jobs\n", res.Requests, res.Jobs)
	if res.EdgeCloudBytes > 0 {
		fmt.Printf("  edge-cloud:      %.1f GB in %.1fs per period\n",
			float64(res.EdgeCloudBytes)/1e9, res.EdgeCloudTransfer.Seconds())
	}
	if faultCfg != nil {
		fmt.Printf("  faults:          %d retrain fail / %d abandoned / %d slowed, %d incremental, "+
			"%d degraded jobs, %d bursts, %d drift spikes\n",
			res.FaultRetrainFailures, res.FaultRetrainAbandoned, res.FaultRetrainSlowed,
			res.FaultIncrementalFailed+res.FaultIncrementalSlowed,
			res.FaultDegradedJobs, res.FaultBursts, res.FaultDriftSpikes)
		if faultCfg.GPUFaults() {
			fmt.Printf("  lane faults:     %d crashes / %d recoveries, %d re-placements, "+
				"%d requests shed, %d suspended retrain app-periods\n",
				res.FaultGPUCrashes, res.FaultGPURecoveries, res.FaultReplacements,
				res.FaultShedRequests, res.FaultSuspendedRetrainPeriods)
		}
	}
	if *histOn {
		fmt.Println("\nlatency quantiles (ms):")
		printSummary("inference", res.InferLatency)
		printSummary("retraining", res.RetrainLatency)
		printSummary("queueing", res.QueueDelay)
		printSummary("planning", res.PlanningTime)
		printSummary("profiling", tel.Profiling.Summary())
	}
	if *tracePath != "" {
		fmt.Printf("\ntrace written to %s\n", *tracePath)
		if *chromePath != "" {
			if err := exportChrome(*tracePath, *chromePath); err != nil {
				fatal(err)
			}
			fmt.Printf("chrome trace written to %s (open in chrome://tracing or Perfetto)\n", *chromePath)
		}
	}
	if *verbose {
		fmt.Println("\nper-period accuracy:")
		for p, a := range res.PeriodAccuracy {
			fmt.Printf("  period %2d: %.3f\n", p, a)
		}
	}
}

func printSummary(name string, s telemetry.Summary) {
	if s.Count == 0 {
		fmt.Printf("  %-11s (no samples)\n", name)
		return
	}
	fmt.Printf("  %-11s p50 %8.3f  p90 %8.3f  p99 %8.3f  p99.9 %8.3f  max %8.3f  (n=%d)\n",
		name, s.P50Ms, s.P90Ms, s.P99Ms, s.P999Ms, s.MaxMs, s.Count)
}

func exportChrome(tracePath, chromePath string) error {
	in, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(chromePath)
	if err != nil {
		return err
	}
	if err := telemetry.ExportChrome(in, out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func buildMethod(name string, alpha float64) (sched.Method, gpu.Strategy, func() gpumem.Policy, bool, bool, error) {
	adaStrat := gpu.Strategy{MaximizeUsage: true}
	adaPolicy := func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: alpha} }
	switch strings.ToLower(name) {
	case "adainf":
		return core.New(core.Options{}), adaStrat, adaPolicy, true, true, nil
	case "adainf/i":
		return core.New(core.Options{EqualRetrainSplit: true, Label: "AdaInf/I"}), adaStrat, adaPolicy, true, true, nil
	case "adainf/u":
		return core.New(core.Options{NoDAGUpdate: true, Label: "AdaInf/U"}), adaStrat, adaPolicy, true, true, nil
	case "adainf/s":
		return core.New(core.Options{EqualSpaceSplit: true, Label: "AdaInf/S"}), adaStrat, adaPolicy, true, true, nil
	case "adainf/e":
		return core.New(core.Options{FullStructureOnly: true, Label: "AdaInf/E"}), adaStrat, adaPolicy, true, true, nil
	case "adainf/m1":
		return core.New(core.Options{Label: "AdaInf/M1"}), gpu.Strategy{MaximizeUsage: false}, adaPolicy, true, true, nil
	case "adainf/m2":
		return core.New(core.Options{Label: "AdaInf/M2"}), adaStrat,
			func() gpumem.Policy { return gpumem.LRUPolicy{} }, true, true, nil
	case "ekya":
		return baselines.NewEkya(), adaStrat, adaPolicy, true, false, nil
	case "scrooge":
		return baselines.NewScrooge(false), adaStrat, adaPolicy, true, false, nil
	case "scrooge*":
		return baselines.NewScrooge(true), adaStrat, adaPolicy, true, false, nil
	case "none":
		return core.New(core.Options{Label: "w/o retraining"}), adaStrat, adaPolicy, false, false, nil
	default:
		return nil, gpu.Strategy{}, nil, false, false, fmt.Errorf("unknown method %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adainf:", err)
	os.Exit(1)
}
