// Package synthdata generates the synthetic labelled data streams that
// stand in for the paper's camera/audio datasets (Jackson Hole and the
// Scrooge/InferLine application datasets).
//
// Each classification task (vehicle-type recognition, person-activity
// recognition, …) gets a Stream: a per-class Gaussian feature generator
// whose class mix evolves under a dist.LabelDrift process and whose
// class feature means evolve under a dist.FeatureDrift process, one
// step per 50 s period. Samples carry their true class, which plays the
// role of the cloud "golden model" label in the paper.
//
// The streams exercise the real drift-detection code path: the PCA,
// cosine-distance, and Jensen–Shannon computations all run on actual
// generated vectors, not on oracle flags.
package synthdata

import (
	"fmt"
	"math"
	"math/rand"

	"adainf/internal/dist"
	"adainf/internal/mathx"
)

// Sample is one labelled data point.
type Sample struct {
	// Class is the true class index (the golden-model label).
	Class int
	// Features is the feature vector observed by the models.
	Features []float64
	// Period is the period index the sample was generated in.
	Period int
}

// TaskSpec describes one classification task's data process.
type TaskSpec struct {
	// Name identifies the task, e.g. "vehicle-type".
	Name string
	// Classes are the class labels.
	Classes []string
	// FeatureDim is the dimensionality of generated feature vectors.
	FeatureDim int
	// InitialWeights is the class mix at period 0 (normalized
	// internally). Nil means uniform.
	InitialWeights []float64
	// LabelDrift evolves the class mix each period.
	LabelDrift dist.LabelDrift
	// FeatureDrift evolves each class's feature mean each period.
	FeatureDrift dist.FeatureDrift
	// NoiseSigma is the within-class feature standard deviation.
	// Zero defaults to 1.
	NoiseSigma float64
	// MeanSeparation scales how far apart class means start. Zero
	// defaults to 4 (well-separated classes).
	MeanSeparation float64
	// FeatureCoupling shifts a class's feature mean when its share of
	// the mix changes: a class that surges does so under new
	// conditions (an accident fills the street with ambulances at
	// night), so its new samples also LOOK different from the old
	// training data. This covariate shift is what makes the paper's
	// cosine-distance divergence ranking surface the drifted samples.
	// The mean moves by FeatureCoupling · max(0, Δp_c) in a random
	// direction each period (an influx brings novel-looking samples; a
	// decline leaves the remaining samples looking as they always
	// did). Zero defaults to 50 — the shift must clear the within-class
	// noise projected through the detector's PCA (≈ 2σ·√FeatureDim)
	// before the cosine ranking can see it. Negative disables.
	FeatureCoupling float64
}

func (s TaskSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("synthdata: task with empty name")
	}
	if len(s.Classes) < 2 {
		return fmt.Errorf("synthdata: task %q needs ≥2 classes, has %d", s.Name, len(s.Classes))
	}
	if s.FeatureDim <= 0 {
		return fmt.Errorf("synthdata: task %q has feature dim %d", s.Name, s.FeatureDim)
	}
	if s.InitialWeights != nil && len(s.InitialWeights) != len(s.Classes) {
		return fmt.Errorf("synthdata: task %q has %d classes but %d weights",
			s.Name, len(s.Classes), len(s.InitialWeights))
	}
	return nil
}

// Stream is the evolving data process for one task. It is not safe for
// concurrent use.
type Stream struct {
	spec       TaskSpec
	rng        *rand.Rand
	labelDist  *dist.Categorical
	classMeans [][]float64
	// noveltyDirs are fixed per-class unit vectors along which coupled
	// covariate shift accumulates: a class's novel instances keep
	// arriving from the same new condition, so successive shifts
	// compound instead of cancelling.
	noveltyDirs [][]float64
	period      int
	noise       float64
	history     []*dist.Categorical // label distribution at each period
}

// NewStream creates a stream for the task, seeded deterministically.
func NewStream(spec TaskSpec, seed int64) (*Stream, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := dist.NewRNG(seed)
	weights := spec.InitialWeights
	if weights == nil {
		weights = make([]float64, len(spec.Classes))
		for i := range weights {
			weights[i] = 1
		}
	}
	ld, err := dist.NewCategorical(spec.Classes, weights)
	if err != nil {
		return nil, err
	}
	sep := spec.MeanSeparation
	if sep == 0 {
		sep = 4
	}
	noise := spec.NoiseSigma
	if noise == 0 {
		noise = 1
	}
	// Class means share a strong common component — every frame of one
	// camera feed looks broadly alike — plus a class-specific offset
	// that makes classes separable. The common component keeps the
	// static between-class angles small, so the cosine-divergence the
	// drift detector measures is dominated by actual covariate shift
	// (FeatureCoupling) rather than by fixed class geometry.
	base := make([]float64, spec.FeatureDim)
	var baseNorm float64
	for j := range base {
		base[j] = rng.NormFloat64()
		baseNorm += base[j] * base[j]
	}
	baseNorm = math.Sqrt(baseNorm)
	baseScale := 10 * sep
	means := make([][]float64, len(spec.Classes))
	for c := range means {
		m := make([]float64, spec.FeatureDim)
		for j := range m {
			m[j] = base[j]/baseNorm*baseScale + rng.NormFloat64()*sep
		}
		means[c] = m
	}
	dirs := make([][]float64, len(spec.Classes))
	for c := range dirs {
		d := make([]float64, spec.FeatureDim)
		var dn float64
		for j := range d {
			d[j] = rng.NormFloat64()
			dn += d[j] * d[j]
		}
		dn = math.Sqrt(dn)
		for j := range d {
			d[j] /= dn
		}
		dirs[c] = d
	}
	s := &Stream{
		spec:        spec,
		rng:         rng,
		labelDist:   ld,
		classMeans:  means,
		noveltyDirs: dirs,
		noise:       noise,
	}
	s.history = append(s.history, ld.Clone())
	return s, nil
}

// Period returns the current period index.
func (s *Stream) Period() int { return s.period }

// LabelDist returns the current class-mix distribution (copy).
func (s *Stream) LabelDist() *dist.Categorical { return s.labelDist.Clone() }

// ClassMean returns a copy of the current feature mean of class c.
func (s *Stream) ClassMean(c int) []float64 { return mathx.Clone(s.classMeans[c]) }

// AdvancePeriod evolves the class mix and feature means by one period
// and returns the new period index.
func (s *Stream) AdvancePeriod() int {
	prev := s.labelDist
	s.labelDist = s.spec.LabelDrift.Evolve(s.rng, s.labelDist)
	coupling := s.spec.FeatureCoupling
	if coupling == 0 {
		coupling = 50
	}
	for c := range s.classMeans {
		s.classMeans[c] = s.spec.FeatureDrift.Evolve(s.rng, s.classMeans[c])
		if coupling > 0 {
			// Covariate shift coupled to the class-mix change: a class
			// that SURGES brings novel-looking instances (new vehicle
			// types, new lighting), so its mean moves proportionally to
			// the increase. A declining class's remaining samples still
			// look like they always did, so declines shift nothing.
			delta := s.labelDist.Prob(c) - prev.Prob(c)
			if delta > 0 {
				dir := s.noveltyDirs[c]
				for j := range dir {
					s.classMeans[c][j] += dir[j] * coupling * delta
				}
			}
		}
	}
	s.period++
	s.history = append(s.history, s.labelDist.Clone())
	return s.period
}

// Shock applies an abrupt drift spike within the current period: one
// rng-chosen class surges to a mix of intensity·one-hot + (1−intensity)·
// current, and — as in AdvancePeriod — the surging class's feature mean
// shifts along its novelty direction in proportion to its gain, so the
// spike is visible to both the label-JS and cosine-divergence detectors.
// The period index does not advance; the recorded history entry for the
// current period is replaced so PeriodDivergence reflects the shock.
// The caller supplies the RNG, keeping the stream's own generator (and
// therefore every subsequent sample and drift step) untouched.
func (s *Stream) Shock(rng *rand.Rand, intensity float64) {
	if intensity <= 0 {
		return
	}
	if intensity > 1 {
		intensity = 1
	}
	surge := rng.Intn(len(s.spec.Classes))
	weights := make([]float64, len(s.spec.Classes))
	for c := range weights {
		weights[c] = (1 - intensity) * s.labelDist.Prob(c)
		if c == surge {
			weights[c] += intensity
		}
	}
	prev := s.labelDist
	ld, err := dist.NewCategorical(s.spec.Classes, weights)
	if err != nil {
		// Unreachable: the surge entry is ≥ intensity > 0 and no entry
		// can be negative.
		panic(fmt.Sprintf("synthdata: shock produced invalid mix: %v", err))
	}
	s.labelDist = ld
	coupling := s.spec.FeatureCoupling
	if coupling == 0 {
		coupling = 50
	}
	if delta := s.labelDist.Prob(surge) - prev.Prob(surge); coupling > 0 && delta > 0 {
		dir := s.noveltyDirs[surge]
		for j := range dir {
			s.classMeans[surge][j] += dir[j] * coupling * delta
		}
	}
	s.history[len(s.history)-1] = s.labelDist.Clone()
}

// PeriodDivergence returns the Jensen–Shannon divergence between the
// class mixes of periods p−1 and p (Fig. 6's series). It panics if
// either period is outside the recorded history.
func (s *Stream) PeriodDivergence(p int) float64 {
	if p <= 0 || p >= len(s.history) {
		panic(fmt.Sprintf("synthdata: PeriodDivergence(%d) outside history of %d periods", p, len(s.history)))
	}
	return s.history[p-1].JSDivergence(s.history[p])
}

// Dataset is a fixed labelled sample set, e.g. the initial training
// data (first 40% of the paper's dataset) or one period's retraining
// pool.
type Dataset struct {
	Task    string
	Samples []Sample
	// block backs every sample's Features when the dataset was drawn
	// by Recollect; a later Recollect may take it over.
	block []float64
}

// LabelDistribution returns the empirical class distribution over k
// classes.
func (d *Dataset) LabelDistribution(k int) []float64 {
	counts := make([]float64, k)
	for _, s := range d.Samples {
		counts[s.Class]++
	}
	return mathx.Normalize(counts)
}

// Collect draws n samples from the stream into a Dataset.
func Collect(s *Stream, n int) *Dataset { return Recollect(s, n, nil) }

// Recollect is Collect reusing the storage of spare, a dataset its
// caller no longer reads: the new dataset takes over spare's sample
// slice and feature block when their capacity suffices and allocates
// them once otherwise. spare (which may be nil) is left empty, so a
// stale holder of it sees no samples rather than another period's.
// The draws, and therefore the samples, are exactly Collect's.
func Recollect(s *Stream, n int, spare *Dataset) *Dataset {
	var samples []Sample
	var block []float64
	if spare != nil {
		samples, block = spare.Samples, spare.block
		spare.Samples, spare.block = nil, nil
	}
	if cap(samples) < n {
		samples = make([]Sample, n)
	}
	dim := s.spec.FeatureDim
	if cap(block) < n*dim {
		block = make([]float64, n*dim)
	}
	samples, block = samples[:n], block[:n*dim]
	// One class then FeatureDim noise draws per sample. Sample i's
	// features are the row view block[i*dim:(i+1)*dim] capped at its
	// end, so appending to one sample cannot overwrite the next.
	for i := range samples {
		c := s.labelDist.Sample(s.rng)
		f := block[i*dim : (i+1)*dim : (i+1)*dim]
		mean := s.classMeans[c]
		for j := range f {
			f[j] = mean[j] + s.rng.NormFloat64()*s.noise
		}
		samples[i] = Sample{Class: c, Features: f, Period: s.period}
	}
	return &Dataset{Task: s.spec.Name, Samples: samples, block: block}
}
