package dnn

import (
	"math"
	"testing"
	"testing/quick"

	"adainf/internal/dist"
)

func mustDist(t *testing.T, labels []string, w []float64) *dist.Categorical {
	t.Helper()
	c, err := dist.NewCategorical(labels, w)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var vehicleLabels = []string{"car", "bus", "police", "ambulance"}

func TestAccuracyAtBaseWhenNoDrift(t *testing.T) {
	live := mustDist(t, vehicleLabels, []float64{4, 3, 2, 1})
	s := NewState(MobileNetV2(), live)
	if got := s.Accuracy(live); math.Abs(got-0.96) > 1e-9 {
		t.Fatalf("no-drift accuracy = %v, want base 0.96", got)
	}
}

func TestAccuracyDropsUnderDrift(t *testing.T) {
	initial := mustDist(t, vehicleLabels, []float64{8, 1, 0.5, 0.5})
	s := NewState(MobileNetV2(), initial)
	// An accident: police cars and ambulances surge.
	live := mustDist(t, vehicleLabels, []float64{2, 1, 4, 3})
	drifted := s.Accuracy(live)
	if drifted >= 0.96 {
		t.Fatalf("drifted accuracy = %v, should be below base", drifted)
	}
	if drifted < MobileNetV2().GuessAccuracy {
		t.Fatalf("drifted accuracy = %v below guess floor", drifted)
	}
}

func TestClassAccuracyFamiliarity(t *testing.T) {
	initial := mustDist(t, vehicleLabels, []float64{9, 1, 0, 0})
	s := NewState(MobileNetV2(), initial)
	live := mustDist(t, vehicleLabels, []float64{1, 1, 4, 4})
	// The model has never seen police/ambulance: near guess accuracy.
	if got := s.ClassAccuracy(2, live); got > 0.3 {
		t.Fatalf("unseen class accuracy = %v, want near guess 0.25", got)
	}
	// Cars it has seen plenty of relative to the live mix: base accuracy.
	if got := s.ClassAccuracy(0, live); math.Abs(got-0.96) > 1e-9 {
		t.Fatalf("familiar class accuracy = %v, want 0.96", got)
	}
	// A class absent from the live mix does not matter: report base.
	zero := mustDist(t, vehicleLabels, []float64{1, 1, 1, 0})
	if got := s.ClassAccuracy(3, zero); got != 0.96 {
		t.Fatalf("absent class accuracy = %v", got)
	}
}

func TestTrainingRecoversAccuracy(t *testing.T) {
	initial := mustDist(t, vehicleLabels, []float64{8, 1, 0.5, 0.5})
	live := mustDist(t, vehicleLabels, []float64{2, 1, 4, 3})
	s := NewState(MobileNetV2(), initial)
	before := s.Accuracy(live)
	s.Train(live, 5*KappaSamples) // generous budget: ≈ full recovery
	after := s.Accuracy(live)
	if after <= before {
		t.Fatalf("training did not help: %v → %v", before, after)
	}
	if math.Abs(after-0.96) > 0.01 {
		t.Fatalf("post-training accuracy = %v, want ≈ base", after)
	}
}

func TestIncrementalTrainingMatchesContinualInTheLimit(t *testing.T) {
	initial := mustDist(t, vehicleLabels, []float64{8, 1, 0.5, 0.5})
	live := mustDist(t, vehicleLabels, []float64{1, 1, 4, 4})
	continual := NewState(MobileNetV2(), initial)
	incremental := NewState(MobileNetV2(), initial)
	continual.Train(live, 4*KappaSamples)
	for i := 0; i < 8; i++ { // same total exposure, split in 8 steps
		incremental.Train(live, KappaSamples/2)
	}
	ca := continual.Accuracy(live)
	ia := incremental.Accuracy(live)
	if math.Abs(ca-ia) > 0.005 {
		t.Fatalf("continual %v vs incremental %v diverge", ca, ia)
	}
	// But incremental had non-trivial accuracy at every intermediate
	// step — the paper's Observation 4. Spot check after one step.
	mid := NewState(MobileNetV2(), initial)
	mid.Train(live, KappaSamples/2)
	if mid.Accuracy(live) <= NewState(MobileNetV2(), initial).Accuracy(live) {
		t.Fatal("first incremental step gave no benefit")
	}
}

func TestLearningFraction(t *testing.T) {
	s := NewState(ShuffleNet(), mustDist(t, vehicleLabels, []float64{1, 1, 1, 1}))
	if got := s.LearningFraction(0); got != 0 {
		t.Fatalf("LearningFraction(0) = %v", got)
	}
	if got := s.LearningFraction(-5); got != 0 {
		t.Fatalf("LearningFraction(neg) = %v", got)
	}
	// κ samples → 1−1/e.
	if got := s.LearningFraction(KappaSamples); math.Abs(got-(1-1/math.E)) > 1e-9 {
		t.Fatalf("LearningFraction(κ) = %v", got)
	}
}

func TestAccuracyWithStructure(t *testing.T) {
	live := mustDist(t, vehicleLabels, []float64{1, 1, 1, 1})
	s := NewState(MobileNetV2(), live)
	sts := EarlyExitStructures(MobileNetV2(), 3)
	full := s.AccuracyWith(live, FullStructure(MobileNetV2()))
	early := s.AccuracyWith(live, sts[0])
	if early >= full {
		t.Fatalf("shallow exit accuracy %v not below full %v", early, full)
	}
	if early < MobileNetV2().GuessAccuracy {
		t.Fatalf("structure accuracy %v below guess floor", early)
	}
}

func TestCorrectProbBounds(t *testing.T) {
	f := func(wc, wb, wp, wa uint8, exitIdx uint8) bool {
		weights := []float64{float64(wc) + 1, float64(wb) + 1, float64(wp) + 1, float64(wa) + 1}
		live, err := dist.NewCategorical(vehicleLabels, weights)
		if err != nil {
			return false
		}
		s := NewState(MobileNetV2(), live)
		sts := EarlyExitStructures(MobileNetV2(), 3)
		st := sts[int(exitIdx)%len(sts)]
		for c := 0; c < 4; c++ {
			p := s.CorrectProb(c, live, st)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			if p < MobileNetV2().GuessAccuracy-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	initial := mustDist(t, vehicleLabels, []float64{1, 1, 1, 1})
	live := mustDist(t, vehicleLabels, []float64{4, 1, 1, 1})
	s := NewState(MobileNetV2(), initial)
	c := s.Clone()
	c.Train(live, 50*KappaSamples)
	if s.knowledge.JSDivergence(initial) != 0 {
		t.Fatal("training a clone mutated the original")
	}
}

// TestTrainLeavesSnapshotsUnchanged pins what makes Train's in-place
// blend safe: a Clone and the initial and target distributions taken
// before Train do not move when it blends.
func TestTrainLeavesSnapshotsUnchanged(t *testing.T) {
	initial := mustDist(t, vehicleLabels, []float64{8, 1, 0.5, 0.5})
	live := mustDist(t, vehicleLabels, []float64{1, 1, 4, 4})
	s := NewState(MobileNetV2(), initial)
	s.Train(live, KappaSamples/4)
	clone := s.Clone()
	want, initialWant, liveWant := s.knowledge.Probs(), initial.Probs(), live.Probs()
	s.Train(live, KappaSamples)
	if s.knowledge.JSDivergence(clone.knowledge) == 0 {
		t.Fatal("Train did not move the knowledge")
	}
	for name, tc := range map[string]struct {
		got, want []float64
	}{
		"Clone":   {clone.knowledge.Probs(), want},
		"initial": {initial.Probs(), initialWant},
		"target":  {live.Probs(), liveWant},
	} {
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Fatalf("%s moved: %v, want %v", name, tc.got, tc.want)
			}
		}
	}
}

func TestStatePanicsOnBadInputs(t *testing.T) {
	live := mustDist(t, vehicleLabels, []float64{1, 1, 1, 1})
	for name, fn := range map[string]func(){
		"nil arch": func() { NewState(nil, live) },
		"nil dist": func() { NewState(MobileNetV2(), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
