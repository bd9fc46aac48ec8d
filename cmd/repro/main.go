// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro [flags] <artifact>...
//	repro all
//
// Artifacts: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig18 fig19 fig20 fig21 fig22 fig23 fig24 table1 table2 failover
// resilience scaling.
//
// Each artifact prints labelled series and tables matching the paper's
// figure, plus notes comparing the measured shape to the published one.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"adainf/internal/cliflags"
	"adainf/internal/experiments"
	"adainf/internal/profile"
)

var runners = map[string]func(experiments.Options) (*experiments.Result, error){
	"fig4":       experiments.Fig4,
	"fig5":       experiments.Fig5,
	"fig6":       experiments.Fig6,
	"fig7":       experiments.Fig7,
	"fig8":       experiments.Fig8,
	"fig9":       experiments.Fig9,
	"fig10":      experiments.Fig10,
	"fig11":      experiments.Fig11,
	"fig12":      experiments.Fig12,
	"fig13":      experiments.Fig13,
	"fig18":      experiments.Fig18,
	"fig19":      experiments.Fig19,
	"fig20":      experiments.Fig20,
	"fig21":      experiments.Fig21,
	"fig22":      experiments.Fig22,
	"fig23":      experiments.Fig23,
	"fig24":      experiments.Fig24,
	"table1":     experiments.Table1,
	"table2":     experiments.Table2,
	"resilience": experiments.Resilience,
	"scaling":    experiments.Scaling,
	"failover":   experiments.Failover,
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "experiment seed")
		horizon  = flag.Duration("horizon", 0, "serving horizon (default 500s, i.e. 10 periods)")
		rate     = flag.Float64("rate", 0, "mean request rate per application (req/s, default 250)")
		quick    = flag.Bool("quick", false, "shrink runs for a fast smoke pass")
		parallel = flag.Int("parallel", 0, "simulation arms run concurrently (0 = one per CPU, 1 = sequential; output is identical either way)")
		progress = flag.Bool("progress", false, "report each completed simulation arm to stderr")
		auditOn  = flag.Bool("audit", false,
			"validate every simulation against the paper's invariants (fail-fast; metrics are bit-identical either way)")
		profDir = flag.String("profile-cache", "results/profiles",
			"directory for cached offline profiles (empty = rebuild every run; delete the directory to clear)")
		histOn = flag.Bool("hist", false,
			"collect latency histograms per arm; latency tables gain p50/p99/p99.9 columns (metrics are bit-identical either way)")
		traceDir = flag.String("trace", "",
			"write one JSONL decision trace per simulation arm into this directory (validate/convert with tracecheck)")
		profClear = flag.Bool("profile-cache-clear", false,
			"clear the profile cache directory before running (forces a cold rebuild)")
		faultSpec = flag.String("faults", "",
			"deterministic fault injection: \"default\" or comma-separated k=v "+
				"(retrain-fail, retrain-slow, slow-factor, retries, backoff, mem-fail, "+
				"burst, burst-factor, burst-sessions, drift-spike, spike-intensity, "+
				"gpu-crash, gpu-recover, gpu-crash-after, gpu-crash-max); empty = disabled")
		faultSeed = flag.Int64("fault-seed", 1,
			"seed of the fault injector (independent of -seed; identical seeds give byte-identical injections)")
		gpus = flag.Int("gpus", 1,
			"GPU lanes to shard each simulated server into (1 = the paper's single-server setup; apps are placed by working set and load)")
	)
	flag.Usage = usage
	flag.Parse()
	faultCfg, faultErr := cliflags.Faults("-faults", *faultSpec, *faultSeed)
	if err := cliflags.First(
		cliflags.Workers("-parallel", *parallel),
		cliflags.Lanes("-gpus", *gpus),
		cliflags.Rate("-rate", *rate, true),
		cliflags.Horizon("-horizon", *horizon, true),
		faultErr,
	); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	if *profClear && *profDir != "" {
		if _, err := profile.CleanCache(*profDir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "repro: clearing profile cache: %v\n", err)
			os.Exit(1)
		}
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = allIDs()
	}
	opts := experiments.Options{
		Seed: *seed, Horizon: *horizon, Rate: *rate, Quick: *quick,
		Workers: *parallel, ProfileCache: *profDir,
		Audit: *auditOn, Hist: *histOn, TraceDir: *traceDir,
		NGPUs: *gpus,
	}
	opts.Faults = faultCfg
	if *progress {
		opts.Progress = func(ev experiments.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "repro: %s arm %d/%d done (%s)\n",
				ev.Artifact, ev.Done, ev.Total, ev.Arm)
		}
	}
	exit := 0
	for _, id := range args {
		fn, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown artifact %q (see -h)\n", id)
			exit = 2
			continue
		}
		start := time.Now()
		res, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s failed: %v\n", id, err)
			exit = 1
			continue
		}
		res.Render(os.Stdout)
		note := ""
		if *auditOn {
			// Fail-fast auditing: reaching here means zero violations.
			note = ", audit clean"
		}
		fmt.Printf("(%s regenerated in %v%s)\n\n", id, time.Since(start).Round(time.Millisecond), note)
	}
	os.Exit(exit)
}

func allIDs() []string {
	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// figN numerically, tables after, extras alphabetically last.
		if ki, kj := key(ids[i]), key(ids[j]); ki != kj {
			return ki < kj
		}
		return ids[i] < ids[j]
	})
	return ids
}

func key(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n
	}
	if _, err := fmt.Sscanf(id, "table%d", &n); err == nil {
		return 100 + n
	}
	return 1000
}

func usage() {
	fmt.Fprintf(os.Stderr, `repro regenerates the AdaInf paper's tables and figures.

usage: repro [flags] <artifact>...
       repro all

artifacts:
`)
	for _, id := range allIDs() {
		fmt.Fprintf(os.Stderr, "  %s\n", id)
	}
	flag.PrintDefaults()
}
