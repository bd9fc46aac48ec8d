package dnn

import (
	"testing"
)

func TestZooArchitecturesValid(t *testing.T) {
	for name := range zoo {
		a, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missing", name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if a.Name != name {
			t.Errorf("arch name %q registered under %q", a.Name, name)
		}
	}
	if _, ok := ByName("NoSuchModel"); ok {
		t.Error("ByName returned a model for an unknown name")
	}
}

func TestZooRelativeScales(t *testing.T) {
	yolo, _ := ByName("TinyYOLOv3")
	mobile, _ := ByName("MobileNetV2")
	shuffle, _ := ByName("ShuffleNet")
	// The detector is far more compute-heavy than the recognizers.
	if yolo.ForwardFLOPs(yolo.NumLayers()) < 10*mobile.ForwardFLOPs(mobile.NumLayers()) {
		t.Error("TinyYOLOv3 not ≥10× MobileNetV2 compute")
	}
	if mobile.ForwardFLOPs(mobile.NumLayers()) < shuffle.ForwardFLOPs(shuffle.NumLayers()) {
		t.Error("MobileNetV2 should out-compute ShuffleNet")
	}
	// Parameter footprints in plausible MB ranges.
	if mb := yolo.TotalParamBytes() >> 20; mb < 20 || mb > 60 {
		t.Errorf("TinyYOLOv3 params = %d MB", mb)
	}
}

func TestArchValidateRejectsBadArchs(t *testing.T) {
	good := MobileNetV2()
	cases := []func(*Arch){
		func(a *Arch) { a.Name = "" },
		func(a *Arch) { a.Layers = nil },
		func(a *Arch) { a.Layers[0].FwdFLOPs = 0 },
		func(a *Arch) { a.Layers[0].ParamBytes = -1 },
		func(a *Arch) { a.BaseAccuracy = 0 },
		func(a *Arch) { a.BaseAccuracy = 1.2 },
		func(a *Arch) { a.GuessAccuracy = a.BaseAccuracy },
	}
	for i, mutate := range cases {
		a := *good
		a.Layers = append([]Layer(nil), good.Layers...)
		mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: invalid arch passed validation", i)
		}
	}
}

func TestArchAggregates(t *testing.T) {
	a := &Arch{
		Name: "toy",
		Layers: []Layer{
			{Name: "l0", FwdFLOPs: 100, ParamBytes: 10, ActivationBytes: 50},
			{Name: "l1", FwdFLOPs: 200, ParamBytes: 30, ActivationBytes: 20},
		},
		BaseAccuracy:  0.9,
		GuessAccuracy: 0.1,
	}
	if got := a.TotalParamBytes(); got != 40 {
		t.Fatalf("TotalParamBytes = %d", got)
	}
	if got := a.ForwardFLOPs(1); got != 100 {
		t.Fatalf("ForwardFLOPs(1) = %v", got)
	}
	if got := a.ForwardFLOPs(99); got != 300 {
		t.Fatalf("ForwardFLOPs(clamped) = %v", got)
	}
	// Train work = 3× forward (fwd + 2× bwd).
	if got := a.TrainFLOPs(); got != 900 {
		t.Fatalf("TrainFLOPs = %v", got)
	}
	if got := a.Layers[1].BwdFLOPs(); got != 400 {
		t.Fatalf("BwdFLOPs = %v", got)
	}
}

func TestSynthesizeProfiles(t *testing.T) {
	a := synthesize("probe", 12, 2.0, 20, 8, 0.5, 0.9, 0.1)
	// Activations decay front to back; params grow front to back.
	first, last := a.Layers[0], a.Layers[len(a.Layers)-1]
	if first.ActivationBytes <= last.ActivationBytes {
		t.Error("activations do not decay with depth")
	}
	if first.ParamBytes >= last.ParamBytes {
		t.Error("params do not grow with depth")
	}
	// Aggregates match the requested totals (within integer rounding).
	gf := a.ForwardFLOPs(a.NumLayers()) / 1e9
	if gf < 1.99 || gf > 2.01 {
		t.Errorf("total GFLOPs = %v, want ~2", gf)
	}
	pm := float64(a.TotalParamBytes()) / (1 << 20)
	if pm < 19.9 || pm > 20.1 {
		t.Errorf("total params = %v MB, want ~20", pm)
	}
}

func TestSynthesizePanicsOnTinyLayerCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 1-layer synth")
		}
	}()
	synthesize("bad", 1, 1, 1, 1, 1, 0.9, 0.1)
}
