package dnn

import (
	"strings"
	"testing"
)

func TestEarlyExitStructuresStride3(t *testing.T) {
	a := MobileNetV2() // 20 layers → exits at 3,6,9,12,15,18 + full = 7
	sts := EarlyExitStructures(a, 3)
	if len(sts) != 7 {
		t.Fatalf("structures = %d, want 7", len(sts))
	}
	for i := 0; i < len(sts)-1; i++ {
		if sts[i].ExitAfter() != 3*(i+1) {
			t.Fatalf("structure %d exits after %d", i, sts[i].ExitAfter())
		}
		if sts[i].IsFull() {
			t.Fatalf("structure %d claims to be full", i)
		}
	}
	last := sts[len(sts)-1]
	if !last.IsFull() || last.AccuracyFactor() != 1 {
		t.Fatalf("last structure %v not full/factor-1", last)
	}
}

func TestEarlyExitDefaultStride(t *testing.T) {
	a := ShuffleNet()
	if got, want := len(EarlyExitStructures(a, 0)), len(EarlyExitStructures(a, 3)); got != want {
		t.Fatalf("default stride mismatch: %d vs %d", got, want)
	}
}

func TestStructureMonotonicity(t *testing.T) {
	a := TinyYOLOv3()
	sts := EarlyExitStructures(a, 3)
	for i := 1; i < len(sts); i++ {
		if a.ForwardFLOPs(sts[i].ExitAfter()) <= a.ForwardFLOPs(sts[i-1].ExitAfter()) {
			t.Errorf("deeper structure %v not more work than %v", sts[i], sts[i-1])
		}
		if sts[i].AccuracyFactor() < sts[i-1].AccuracyFactor() {
			t.Errorf("deeper structure %v lower accuracy factor than %v", sts[i], sts[i-1])
		}
		if sts[i].ParamBytes() <= sts[i-1].ParamBytes() {
			t.Errorf("deeper structure %v not more params than %v", sts[i], sts[i-1])
		}
	}
}

func TestExitAccuracyFactorShape(t *testing.T) {
	if got := exitAccuracyFactor(1); got != 1 {
		t.Fatalf("factor(1) = %v", got)
	}
	if got := exitAccuracyFactor(0); got != 0 {
		t.Fatalf("factor(0) = %v", got)
	}
	// Keeping 60% of the work should cost well under 1% accuracy.
	if got := exitAccuracyFactor(0.6); got < 0.98 || got >= 1 {
		t.Fatalf("factor(0.6) = %v, want ~0.993", got)
	}
	// Monotone increasing in r.
	prev := 0.0
	for r := 0.05; r <= 1.0; r += 0.05 {
		f := exitAccuracyFactor(r)
		if f < prev {
			t.Fatalf("factor not monotone at r=%v", r)
		}
		prev = f
	}
}

func TestStructureString(t *testing.T) {
	a := MobileNetV2()
	if got := FullStructure(a).String(); got != "MobileNetV2[full]" {
		t.Fatalf("String = %q", got)
	}
	sts := EarlyExitStructures(a, 3)
	if got := sts[0].String(); !strings.Contains(got, "exit@3/20") {
		t.Fatalf("String = %q", got)
	}
}

func TestStructureLayersAndPeak(t *testing.T) {
	a := TinyYOLOv3()
	sts := EarlyExitStructures(a, 3)
	s := sts[1] // exit after 6
	if len(s.Layers()) != 6 {
		t.Fatalf("Layers len = %d", len(s.Layers()))
	}
	if s.PeakActivationBytes() <= 0 {
		t.Fatal("no peak activation")
	}
	if s.PeakActivationBytes() > FullStructure(a).PeakActivationBytes() {
		t.Fatal("truncation increased peak activation")
	}
}
