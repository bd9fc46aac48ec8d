package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict compares B against A for one metric. A metric
// whose values repeat exactly on both sides (a simulated statistic at a
// fixed seed) compares exactly: any move counts. Otherwise a change
// within the bound is unchanged, and when either side's quartile spread
// exceeds the bound the comparison is unresolved unless every run of
// one side beats every run of the other.
func verdict(ms metricSpec, a, b summary) string {
	// worseBy is B's relative change from A's median in the metric's
	// worse direction.
	sign := 1.0
	if ms.Better == "higher" {
		sign = -1
	}
	var worseBy float64
	if a.Median != 0 {
		worseBy = sign * (b.Median - a.Median) / math.Abs(a.Median)
	} else if b.Median != a.Median {
		worseBy = sign * math.Inf(1)
	}
	bound := ms.Bound
	if constant(a.Values) && constant(b.Values) {
		bound = 0
	}
	allBetter, allWorse := true, true
	for _, x := range a.Values {
		for _, y := range b.Values {
			d := sign * (y - x)
			allBetter = allBetter && d < 0
			allWorse = allWorse && d > 0
		}
	}
	switch {
	case (a.spread() > bound || b.spread() > bound) && !allBetter && !allWorse:
		return "unresolved"
	case worseBy > bound:
		return "worse"
	case worseBy < -bound:
		return "better"
	}
	return "unchanged"
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// compareFiles prints, for every workload and every end-to-end metric
// and simulated statistic, both files' medians and quartiles, B's
// change from A and the verdict. It reports whether any verdict is
// worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %.12s, %d repeats)\nB: %s (commit %.12s, %d repeats)\n",
		pathA, a.Env.GitCommit, a.Repeats, pathB, b.Env.GitCommit, b.Repeats)
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "warning: seeds differ (%d vs %d): simulated statistics will not match\n", a.Seed, b.Seed)
	}
	bByName := map[string]*workloadResult{}
	for i := range b.Workloads {
		bByName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	worse := false
	fmt.Fprintf(w, "%-16s %-16s %30s %30s %9s %6s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from B\n", wa.Name)
			worse = true
			continue
		}
		row := func(ms metricSpec, sa, sb summary) {
			v := verdict(ms, sa, sb)
			worse = worse || v == "worse"
			d := ratio(sb.Median-sa.Median, math.Abs(sa.Median))
			fmt.Fprintf(w, "%-16s %-16s %30s %30s %+8.2f%% %5.1f%%  %s\n", wa.Name, ms.Name,
				quartiles(sa), quartiles(sb), 100*d, 100*ms.Bound, v)
		}
		for _, ms := range sp.EndToEnd {
			row(ms, wa.EndToEnd[ms.Name].summary, wb.EndToEnd[ms.Name].summary)
		}
		// Simulated statistics carry no bound: at one seed they repeat
		// exactly, so any move is a change.
		for _, ms := range simulated {
			row(ms, wa.Simulated[ms.Name].summary, wb.Simulated[ms.Name].summary)
		}
		v := "unchanged"
		if wb.RunFailFrac > 0 {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-16s %-16s %30g %30g %9s %6s  %s\n", wa.Name, "run_fail_frac",
			wa.RunFailFrac, wb.RunFailFrac, "", "0", v)
	}
	return worse, nil
}

func quartiles(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}
