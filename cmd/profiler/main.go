// Command profiler runs AdaInf's offline profiling (§3.3, §6) for an
// application and dumps the per-structure latency grid, the fitted
// scaling laws, the retraining costs, and the per-data-type reuse-time
// means that seed the priority eviction policy.
//
// Usage:
//
//	profiler -app video-surveillance
//	profiler -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adainf/internal/app"
	"adainf/internal/cliflags"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
)

func main() {
	var (
		appName  = flag.String("app", "video-surveillance", "application to profile")
		list     = flag.Bool("list", false, "list available applications and exit")
		alpha    = flag.Float64("alpha", 0.4, "priority-eviction weight α")
		cacheDir = flag.String("profile-cache", "results/profiles",
			"directory for cached offline profiles (empty = always rebuild)")
	)
	flag.Parse()
	if err := cliflags.Alpha("-alpha", *alpha); err != nil {
		fmt.Fprintln(os.Stderr, "profiler:", err)
		os.Exit(2)
	}

	catalog := app.Catalog()
	if *list {
		for _, a := range catalog {
			fmt.Printf("%-20s SLO %v, %d models\n", a.Name, a.SLO, len(a.Nodes))
		}
		return
	}
	var target *app.App
	for _, a := range catalog {
		if a.Name == *appName {
			target = a
		}
	}
	if target == nil {
		fmt.Fprintf(os.Stderr, "profiler: unknown app %q (use -list)\n", *appName)
		os.Exit(2)
	}

	ap, info, err := profile.BuildAppProfileCachedInfo(target, profile.Config{
		Strategy:  gpu.Strategy{MaximizeUsage: true},
		NewPolicy: func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: *alpha} },
	}, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiler:", err)
		os.Exit(1)
	}
	cache := "cache miss"
	switch {
	case *cacheDir == "":
		cache = "cache disabled"
	case info.CacheHit:
		cache = "cache hit"
	}
	fmt.Printf("profiled %q in %v (%s, %d units, %d workers)\n\n",
		target.Name, info.Wall.Round(time.Millisecond), cache, info.Units, info.Workers)

	for i, t := range ap.Tables() {
		fmt.Printf("## %s (%s)\n", t.Node(), target.Nodes[i].Model)
		full, quarter := t.FracIdx(1.0), t.FracIdx(0.25)
		for si := 0; si < t.NumStructs(); si++ {
			fmt.Printf("  %-28s", t.Structure(si).String())
			for bi, b := range t.Batches() {
				per, _ := t.Cell(si, bi, full)
				fmt.Printf("  b%-2d=%6.2fms", b, per.Seconds()*1e3)
			}
			fmt.Printf("   scaling latency∝f^%.2f\n", t.Law(si, 0).B)
		}
		rp := t.Retrain()
		fmt.Printf("  retraining: %.2f ms/sample at full GPU, %.2f ms/sample at 25%%\n\n",
			rp.PerSample[full].Seconds()*1e3, rp.PerSample[quarter].Seconds()*1e3)
	}

	fmt.Println("## per-data-type reuse time means (ms), seeds for S_c = (1-α)·R_c + α·L_s")
	for _, kind := range []gpumem.Kind{gpumem.KindParam, gpumem.KindIntermediate} {
		for _, phase := range []gpumem.Phase{gpumem.PhaseInference, gpumem.PhaseRetraining} {
			class := gpumem.ReuseClass{Kind: kind, Phase: phase}
			if mean, ok := ap.TypeReuse[class]; ok {
				fmt.Printf("  %-26s %8.3f\n", class.String(), mean)
			}
		}
	}
}
