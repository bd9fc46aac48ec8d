package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultFile is bench/results/BENCH_<date>[-tag].json.
type resultFile struct {
	Date      string           `json:"date"`
	Tag       string           `json:"tag,omitempty"`
	Seed      int64            `json:"seed"`
	Repeats   int              `json:"repeats"`
	Seconds   float64          `json:"seconds"`
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

type environment struct {
	Nproc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	GitDirty   bool    `json:"git_dirty"`
	LoadAvg1m  float64 `json:"load_avg_1m"`
}

type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// EndToEnd and Simulated hold every repeat's value of each
	// end-to-end metric and simulated statistic.
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	Simulated map[string]metricSummary `json:"simulated"`
	// Raw holds every repeat's median raw (not rescaled) pass and
	// set-up time and the median times of the reference kernels they
	// were rescaled by.
	Raw map[string]metricSummary `json:"raw"`
	// PerLayer holds the traced run's per-layer metrics.
	PerLayer map[string]metricValue `json:"per_layer"`
	// RunFailFrac is the share of arm runs, over every run of the
	// workload, that failed, had an audit violation, or produced a
	// result digest different from another run of the same arm.
	RunFailFrac float64  `json:"run_fail_frac"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Digests     []string `json:"digests"`
}

type metricSummary struct {
	Unit string `json:"unit"`
	summary
}

// childRun is what one child process reported.
type childRun struct {
	rep report
	det detail
}

// runChild runs one workload in a fresh process of this binary, with
// GOMAXPROCS at the CPU count, and parses its report.
func runChild(name string, seed int64, seconds float64, traced bool, resultsDir string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	// The traced run audits every arm, so the repeats need not.
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr, "-audit=false", "-results", resultsDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c := &childRun{}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: no report in output %q", name, out)
	}
	det, ok := strings.CutPrefix(lines[len(lines)-2], "detail ")
	if !ok {
		return nil, fmt.Errorf("%s: no detail line before the report", name)
	}
	if err := json.Unmarshal([]byte(det), &c.det); err != nil {
		return nil, fmt.Errorf("%s: parsing detail: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.rep); err != nil {
		return nil, fmt.Errorf("%s: parsing report: %w", name, err)
	}
	return c, nil
}

// orchestrate runs every workload repeats times untraced, round-robin
// so machine drift spreads evenly, then once traced, writes the result
// file and prints the medians. It reports whether every run was
// correct.
func orchestrate(sp *spec, seed int64, repeats int, seconds float64, tag, resultsDir string) (bool, error) {
	ws := workloads()
	out := resultFile{
		Date: time.Now().Format("2006-01-02"), Tag: tag, Seed: seed, Repeats: repeats, Seconds: seconds,
		Env: currentEnvironment(),
	}
	runs := make([][]*childRun, len(ws))
	for r := 0; r < repeats; r++ {
		for i, w := range ws {
			start := time.Now()
			c, err := runChild(w.name, seed, seconds, false, resultsDir)
			if err != nil {
				return false, err
			}
			runs[i] = append(runs[i], c)
			fmt.Fprintf(os.Stderr, "repeat %d/%d %-16s wall_s %.3f  (%.1fs)\n",
				r+1, repeats, w.name, c.rep.Metrics["wall_s"].Value, time.Since(start).Seconds())
		}
	}
	allOK := true
	for i, w := range ws {
		start := time.Now()
		traced, err := runChild(w.name, seed, seconds, true, resultsDir)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "traced   %-16s (%.1fs)\n", w.name, time.Since(start).Seconds())
		wr := workloadResult{Name: w.name, Why: sp.why(w.name), EndToEnd: map[string]metricSummary{},
			Simulated: map[string]metricSummary{}, Raw: map[string]metricSummary{},
			PerLayer: traced.rep.Metrics, Digests: runs[i][0].det.Digests}
		for _, ms := range sp.EndToEnd {
			var vals []float64
			for _, c := range runs[i] {
				vals = append(vals, c.rep.Metrics[ms.Name].Value)
			}
			wr.EndToEnd[ms.Name] = metricSummary{Unit: ms.Unit, summary: summarize(vals)}
		}
		for _, ms := range simulated {
			var vals []float64
			for _, c := range runs[i] {
				vals = append(vals, c.det.Simulated[ms.Name])
			}
			wr.Simulated[ms.Name] = metricSummary{Unit: ms.Unit, summary: summarize(vals)}
		}
		for name, pick := range map[string]func(detail) []float64{
			"raw_wall_s":     func(d detail) []float64 { return d.RawPasses },
			"raw_setup_s":    func(d detail) []float64 { return d.RawSetups },
			"setup_kernel_s": func(d detail) []float64 { return d.SetupKernels },
			"kernel_s":       func(d detail) []float64 { return d.Kernels },
		} {
			var vals []float64
			for _, c := range runs[i] {
				vals = append(vals, medianOf(pick(c.det)))
			}
			wr.Raw[name] = metricSummary{Unit: "s", summary: summarize(vals)}
		}
		for _, c := range append(runs[i], traced) {
			wr.Attempted += c.rep.Attempted
			wr.Failed += c.rep.Failed
			for a, d := range c.det.Digests {
				if a >= len(wr.Digests) || d != wr.Digests[a] {
					wr.Failed++
					fmt.Fprintf(os.Stderr, "bench: %s arm %d: digest %s differs from the first run's\n", w.name, a, d)
				}
			}
		}
		wr.RunFailFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
		allOK = allOK && wr.Failed == 0
		out.Workloads = append(out.Workloads, wr)
	}

	printResults(sp, &out)
	name := "BENCH_" + out.Date
	if tag != "" {
		name += "-" + tag
	}
	path := filepath.Join(resultsDir, name+".json")
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\nwrote %s\n", path)
	return allOK, nil
}

func printResults(sp *spec, out *resultFile) {
	fmt.Printf("seed %d, %d repeats, %d CPUs (%s), %s, commit %.12s dirty=%v, load %.2f\n",
		out.Seed, out.Repeats, out.Env.Nproc, out.Env.CPUModel, out.Env.GoVersion,
		out.Env.GitCommit, out.Env.GitDirty, out.Env.LoadAvg1m)
	for _, wr := range out.Workloads {
		fmt.Printf("\n== %s: %s\n", wr.Name, wr.Why)
		fmt.Printf("  %-24s %14s %14s %14s %3s  %s\n", "end-to-end", "median", "q1", "q3", "n", "unit")
		for _, ms := range sp.EndToEnd {
			s := wr.EndToEnd[ms.Name]
			fmt.Printf("  %-24s %14.6g %14.6g %14.6g %3d  %s\n", ms.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
		for _, ms := range simulated {
			s := wr.Simulated[ms.Name]
			fmt.Printf("  %-24s %14.6g %14.6g %14.6g %3d  %s\n", ms.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
		fmt.Printf("  %-24s %14.6g %14s %14s %3d  %s\n", "run_fail_frac", wr.RunFailFrac, "", "", wr.Attempted, "fraction")
		fmt.Printf("  %-32s %14s  %s\n", "per-layer (traced run)", "value", "unit")
		for _, ms := range sp.PerLayer {
			v := wr.PerLayer[ms.Name]
			fmt.Printf("  %-32s %14.6g  %s\n", ms.Name, v.Value, v.Unit)
		}
	}
}

func currentEnvironment() environment {
	e := environment{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) > 0 {
			e.LoadAvg1m, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		e.GitDirty = len(bytes.TrimSpace(out)) > 0
	}
	return e
}
