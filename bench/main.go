// Command bench is the repository's benchmark: five workloads of the
// serving simulator, each run in a fresh process, with end-to-end
// metrics from untraced runs and per-layer metrics from a traced run
// that times the calls into each layer from outside. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-seed S] [-repeats N] [-tag T]
//	bash bench/run.sh -workload W [-seed S] [-seconds T] [-trace 0|1]
//	bash bench/run.sh -compare A.json B.json
//
// With no -workload, the command re-executes itself once per
// (repeat, workload), repeats round-robin, then once more per workload
// traced, and writes bench/results/BENCH_<date>[-tag].json. With
// -workload it runs that workload once in this process and prints, as
// its last line, one JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"adainf/internal/core"
	"adainf/internal/profile"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload, in this process")
		seed         = flag.Int64("seed", 1, "workload seed: arrivals, drift and faults derive from it")
		seconds      = flag.Float64("seconds", 2, "time passes over the workload's arms for this long (at least one pass)")
		trace        = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics instead of end-to-end ones")
		repeats      = flag.Int("repeats", 5, "untraced runs per workload")
		tag          = flag.String("tag", "", "suffix of the result file: BENCH_<date>-<tag>.json")
		resultsDir   = flag.String("results", "bench/results", "directory for result and span files")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		audited      = flag.Bool("audit", true, "end an untraced -workload run with an audited pass that must reproduce its results")
	)
	flag.Parse()
	// The command-line tools users run (repro, adainf) size the planner
	// and profiler pools to the CPU count; measure that configuration.
	core.SetDefaultPlanWorkers(runtime.GOMAXPROCS(0))
	profile.SetDefaultWorkers(runtime.GOMAXPROCS(0))

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if !(*seconds >= 0) {
		fatal(fmt.Errorf("-seconds %g: want 0 or more", *seconds))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
		}

		if err := runOne(sp, *workloadName, *seed, *seconds, *trace == 1, *audited, *resultsDir); err != nil {
			fatal(err)
		}
	default:
		if *repeats < 1 {
			fatal(fmt.Errorf("-repeats %d: want at least 1", *repeats))
		}
		ok, err := orchestrate(sp, *seed, *repeats, *seconds, *tag, *resultsDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// report is the last line a single run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simulated lists the simulated statistics an untraced run reports
// besides the end-to-end metrics. They are outputs of the simulation,
// not costs: across ten seeds their quartiles lie up to a third of the
// median apart (adainf-8app's finish rate), so no bound across seeds
// holds them, while at one seed they repeat exactly and -compare holds
// them exactly.
var simulated = []metricSpec{
	{Name: "sim_accuracy", Unit: "fraction", Better: "higher"},
	{Name: "sim_finish_rate", Unit: "fraction", Better: "higher"},
}

// detail is the line before the report: what the orchestrator keeps
// besides the report's metrics.
type detail struct {
	Digests   []string           `json:"digests"`
	Simulated map[string]float64 `json:"simulated,omitempty"`
	// The raw wall times of the timed steps and the reference-kernel
	// times they were rescaled by.
	RawSetups    []float64 `json:"raw_setup_s,omitempty"`
	RawPasses    []float64 `json:"raw_pass_wall_s,omitempty"`
	SetupKernels []float64 `json:"setup_kernel_s,omitempty"`
	Kernels      []float64 `json:"kernel_s,omitempty"`
}

// runOne runs one workload in this process and prints its metrics,
// one per line, then the detail line and, last, the JSON report.
func runOne(sp *spec, name string, seed int64, seconds float64, traced, audited bool, resultsDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var o *outcome
	metricSpecs, extra := sp.EndToEnd, simulated
	if traced {
		metricSpecs, extra = sp.PerLayer, nil
		o, err = runLayered(&w, seed, spansFile(resultsDir, name))
	} else {
		o, err = runTimed(&w, seed, seconds, audited)
	}
	if err != nil {
		return err
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "bench: %v\n", e)
	}
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	det := detail{Simulated: map[string]float64{}, RawSetups: o.rawSetups, RawPasses: o.rawPasses,
		SetupKernels: o.setupKernels, Kernels: o.kernels}
	value := func(ms metricSpec) (float64, error) {
		v, ok := o.metrics[ms.Name]
		if !ok {
			return 0, fmt.Errorf("%s: metric %s was not measured", name, ms.Name)
		}
		fmt.Printf("%-16s %-32s %14.6g %s\n", name, ms.Name, v, ms.Unit)
		return v, nil
	}
	for _, ms := range metricSpecs {
		v, err := value(ms)
		if err != nil {
			return err
		}
		rep.Metrics[ms.Name] = metricValue{v, ms.Unit}
	}
	for _, ms := range extra {
		v, err := value(ms)
		if err != nil {
			return err
		}
		det.Simulated[ms.Name] = v
	}
	for _, d := range o.digests {
		det.Digests = append(det.Digests, fmt.Sprintf("%016x", d))
	}
	detBuf, err := json.Marshal(det)
	if err != nil {
		return err
	}
	repBuf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n%s\n", detBuf, repBuf)
	return nil
}
