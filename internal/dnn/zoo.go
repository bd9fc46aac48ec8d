package dnn

// Model zoo: the architectures named in the paper's application DAGs,
// synthesized with aggregate footprints that track the published
// models' scales (FLOPs per 416²/224² image, parameter sizes). These
// are the compressed, edge-deployable variants — MobileNet/ShuffleNet
// are edge models already; the rest are assumed compressed with
// DeepSpeed as in §4, which the accuracy model reflects through a
// larger drift sensitivity (see learning.go).

// Zoo lists the canonical architecture constructors by model name.
var zoo = map[string]func() *Arch{
	"TinyYOLOv3":  TinyYOLOv3,
	"MobileNetV2": MobileNetV2,
	"ShuffleNet":  ShuffleNet,
	"ResNet18":    ResNet18,
	"SSDLite":     SSDLite,
	"STN-OCR":     STNOCR,
	"Seq2Seq":     Seq2Seq,
	"BERT-Tiny":   BERTTiny,
	"PRNet":       PRNet,
}

// ByName returns a fresh instance of the named architecture, or false
// if the zoo does not contain it.
func ByName(name string) (*Arch, bool) {
	f, ok := zoo[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// TinyYOLOv3 is the object-detection model of the video-surveillance
// app: ~5.6 GFLOPs, ~35 MB of weights, 24 layers.
func TinyYOLOv3() *Arch {
	return synthesize("TinyYOLOv3", 24, 5.6, 35, 12, 2.0, 0.97, 0.50)
}

// MobileNetV2 is the vehicle-type recognition model: ~0.3 GFLOPs,
// ~14 MB, 20 layers (inverted-residual blocks flattened).
func MobileNetV2() *Arch {
	return synthesize("MobileNetV2", 20, 0.30, 14, 6, 0.6, 0.96, 0.25)
}

// ShuffleNet is the person-activity recognition model: ~0.15 GFLOPs,
// ~9 MB, 17 layers.
func ShuffleNet() *Arch {
	return synthesize("ShuffleNet", 17, 0.15, 9, 5, 0.6, 0.95, 0.25)
}

// ResNet18 (compressed) appears as object/vehicle/gaze recognition in
// the extra apps: ~1.8 GFLOPs, ~45 MB, 18 layers.
func ResNet18() *Arch {
	return synthesize("ResNet18", 18, 1.8, 45, 8, 0.6, 0.96, 0.20)
}

// SSDLite is the lightweight detector in the extra apps: ~0.8 GFLOPs,
// ~17 MB, 22 layers.
func SSDLite() *Arch {
	return synthesize("SSDLite", 22, 0.8, 17, 9, 1.1, 0.95, 0.40)
}

// STNOCR is the text-recognition model: ~2.2 GFLOPs, ~55 MB, 21 layers.
func STNOCR() *Arch {
	return synthesize("STN-OCR", 21, 2.2, 55, 7, 0.8, 0.93, 0.10)
}

// Seq2Seq is the language-translation model of the social-media app:
// ~1.2 GFLOPs per sequence, ~60 MB, 16 layers.
func Seq2Seq() *Arch {
	return synthesize("Seq2Seq", 16, 1.2, 60, 4, 0.05, 0.92, 0.05)
}

// BERTTiny is the post-safety text classifier of the social-media app:
// ~0.6 GFLOPs, ~18 MB, 12 layers.
func BERTTiny() *Arch {
	return synthesize("BERT-Tiny", 12, 0.6, 18, 3, 0.02, 0.94, 0.50)
}

// PRNet is the face/landmark model used for tagging suggestions:
// ~1.0 GFLOPs, ~38 MB, 19 layers.
func PRNet() *Arch {
	return synthesize("PRNet", 19, 1.0, 38, 6, 0.7, 0.94, 0.15)
}
