package cloud

import (
	"testing"
	"time"

	"adainf/internal/dnn"
)

func TestLinkTransferTime(t *testing.T) {
	// 2.5 GB at 2.5 GB/s + half the 20 ms RTT.
	got := transferTime(2.5e9)
	want := time.Second + 10*time.Millisecond
	if got != want {
		t.Fatalf("transferTime = %v, want %v", got, want)
	}
	if got := transferTime(0); got != 10*time.Millisecond {
		t.Fatalf("zero-byte transfer = %v", got)
	}
}

func TestDefaultTrainerTransferMatchesTable1(t *testing.T) {
	// §4's default: eight applications, 24 models, 8000-sample pools.
	// The edge-cloud transfer must land near Table 1's 85.7 GB / 34.1 s.
	var jobs []RetrainJob
	archs := []*dnn.Arch{dnn.TinyYOLOv3(), dnn.MobileNetV2(), dnn.ShuffleNet()}
	for app := 0; app < 8; app++ {
		for _, a := range archs {
			jobs = append(jobs, RetrainJob{App: "a", Node: "n", Arch: a, Samples: 8000})
		}
	}
	_, transfer, bytes, err := Retrain(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	gb := float64(bytes) / 1e9
	if gb < 75 || gb > 100 {
		t.Fatalf("transferred %.1f GB, want ~86 (Table 1: 85.7)", gb)
	}
	s := transfer.Seconds()
	if s < 30 || s > 42 {
		t.Fatalf("transfer time %.1f s, want ~34 (Table 1: 34.1)", s)
	}
}

func TestRetrainCompletionsOrdered(t *testing.T) {
	jobs := []RetrainJob{
		{App: "a", Node: "big", Arch: dnn.TinyYOLOv3(), Samples: 4000},
		{App: "a", Node: "small", Arch: dnn.ShuffleNet(), Samples: 4000},
	}
	results, _, _, err := Retrain(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// The heavier model completes later.
	if results[0].Completion <= results[1].Completion {
		t.Fatalf("TinyYOLO %v should complete after ShuffleNet %v",
			results[0].Completion, results[1].Completion)
	}
	// Everything completes after the shared upload.
	upload := transferTime(int64(8000) * sampleBytes)
	for _, r := range results {
		if r.Completion.Duration() < upload {
			t.Fatalf("completion %v before upload %v finished", r.Completion, upload)
		}
	}
}

func TestRetrainValidation(t *testing.T) {
	if _, _, _, err := Retrain(0, []RetrainJob{{Arch: dnn.ShuffleNet(), Samples: -1}}); err == nil {
		t.Fatal("negative samples accepted")
	}
}

func TestRetrainEmptyJobs(t *testing.T) {
	results, transfer, bytes, err := Retrain(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || bytes != 0 {
		t.Fatalf("empty retrain: %v %v", results, bytes)
	}
	// Only the RTT remains.
	if transfer > time.Second {
		t.Fatalf("empty transfer = %v", transfer)
	}
}
