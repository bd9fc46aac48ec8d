// Drift detection: use the §3.2 machinery directly — generate a
// drifting labelled stream, rank new samples by divergence from the old
// training data (PCA + cosine distance), grow the probe size S until
// the impact decision stabilizes (Table 2), and print the impact
// degrees that drive AdaInf's retraining-time split.
//
//	go run ./examples/driftdetect
package main

import (
	"fmt"
	"log"

	"adainf/internal/app"
	"adainf/internal/drift"
)

func main() {
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{
		Seed:        21,
		PoolSamples: 4000,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The scratch keeps each node's PCA fit until the node is
	// retrained, so detection and sample selection share it.
	var sc drift.Scratch
	for period := 0; period < 6; period++ {
		fmt.Printf("== period %d ==\n", period)
		reports, err := sc.DetectApp(inst, drift.Config{})
		if err != nil {
			log.Fatal(err)
		}
		for _, ni := range inst.Nodes() {
			rep := reports[ni.Node.Name]
			fmt.Printf("  %-18s impacted=%-5v degree=%.3f  (probe I'=%.3f vs initial I=%.3f, stopped at S=%.0f%% after %d rounds)\n",
				ni.Node.Name, rep.Impacted, rep.ImpactDegree,
				rep.ProbeAccuracy, rep.InitialAccuracy, rep.FinalS*100, len(rep.Rounds))

			if rep.Impacted {
				// Show what the divergence ranking surfaced: the top
				// samples over-represent the surged classes. It fits
				// afresh, so it re-draws the reference set's features
				// and then the pool's (they share one block).
				ranked, err := drift.RankByDivergence(ni.OldData, ni.Pool, 4)
				if err != nil {
					log.Fatal(err)
				}
				k := len(ni.Node.Task.Classes)
				top := make([]int, k)
				n := 100
				if n > len(ranked) {
					n = len(ranked)
				}
				for _, idx := range ranked[:n] {
					top[ni.Pool.Classes[idx]]++
				}
				fmt.Printf("    top-%d divergent samples by class:", n)
				for c, cnt := range top {
					if cnt > 0 {
						fmt.Printf(" %s=%d", ni.Node.Task.Classes[c], cnt)
					}
				}
				fmt.Println()

				// Retrain on the most divergent samples, as AdaInf does.
				picked, err := sc.SelectRetrainSamples(ni, 1000)
				if err != nil {
					log.Fatal(err)
				}
				pd, err := ni.PoolDist()
				if err != nil {
					log.Fatal(err)
				}
				before := ni.State.Accuracy(pd)
				ni.State.Train(pd, float64(len(picked))*3)
				ni.NoteTrained()
				fmt.Printf("    retrained on %d divergent samples: pool accuracy %.3f → %.3f\n",
					len(picked), before, ni.State.Accuracy(pd))
			}
		}
		inst.AdvancePeriod(0)
	}
}
