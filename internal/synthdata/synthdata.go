// Package synthdata generates the synthetic labelled data streams that
// stand in for the paper's camera/audio datasets (Jackson Hole and the
// Scrooge/InferLine application datasets).
//
// Each classification task (vehicle-type recognition, person-activity
// recognition, …) gets a Stream: a per-class Gaussian feature generator
// whose class mix evolves under a dist.LabelDrift process, one step
// per 50 s period, and whose class feature means shift when a class
// surges (featureCoupling). Samples carry their true class, which plays
// the role of the cloud "golden model" label in the paper.
//
// The streams exercise the real drift-detection code path: the PCA,
// cosine-distance, and Jensen–Shannon computations all run on actual
// generated vectors, not on oracle flags. Only that path reads feature
// vectors, so a dataset draws its classes when it is collected and its
// feature vectors on first read (see Dataset).
package synthdata

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"adainf/internal/dist"
	"adainf/internal/mathx"
)

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
}

const (
	// noiseSigma is the within-class feature standard deviation.
	noiseSigma = 1.0
	// meanSeparation scales how far apart class means start: 4 keeps
	// the classes well separated.
	meanSeparation = 4.0
	// featureCoupling shifts a class's feature mean when its share of
	// the mix changes: a class that surges does so under new
	// conditions (an accident fills the street with ambulances at
	// night), so its new samples also LOOK different from the old
	// training data. This covariate shift is what makes the paper's
	// cosine-distance divergence ranking surface the drifted samples.
	// The mean moves by featureCoupling · max(0, Δp_c) in a random
	// direction each period (an influx brings novel-looking samples; a
	// decline leaves the remaining samples looking as they always
	// did). The shift must clear the within-class noise projected
	// through the detector's PCA (≈ 2σ·√FeatureDim) before the cosine
	// ranking can see it.
	featureCoupling = 50.0
)

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
// concurrent use, and neither are the datasets collected from it.
type Stream struct {
	spec TaskSpec
	// rng draws the classes and the drift steps.
	rng *rand.Rand
	// seed is NewStream's seed; collected counts the datasets drawn so
	// far. Together they derive each dataset's feature seed.
	seed      int64
	collected int64
	// featureRNG draws feature vectors, reseeded for each draw; nil
	// until the first dataset's features are read.
	featureRNG *rand.Rand
	// block is the one feature block the stream's datasets share, and
	// holder the dataset whose rows it holds (nil before any draw).
	// maxLen is the largest dataset collected so far, which sizes the
	// block.
	block     []float64
	holder    *Dataset
	maxLen    int
	labelDist *dist.Categorical
	// cdf is labelDist's cumulative vector, rebuilt by each collection.
	cdf        []float64
	classMeans [][]float64
	// noveltyDirs are fixed per-class unit vectors along which coupled
	// covariate shift accumulates: a class's novel instances keep
	// arriving from the same new condition, so successive shifts
	// compound instead of cancelling.
	noveltyDirs [][]float64
	period      int
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
	// Class means share a strong common component — every frame of one
	// camera feed looks broadly alike — plus a class-specific offset
	// that makes classes separable. The common component keeps the
	// static between-class angles small, so the cosine-divergence the
	// drift detector measures is dominated by actual covariate shift
	// (featureCoupling) rather than by fixed class geometry.
	base := make([]float64, spec.FeatureDim)
	var baseNorm float64
	for j := range base {
		base[j] = rng.NormFloat64()
		baseNorm += base[j] * base[j]
	}
	baseNorm = math.Sqrt(baseNorm)
	baseScale := 10 * meanSeparation
	means := make([][]float64, len(spec.Classes))
	for c := range means {
		m := make([]float64, spec.FeatureDim)
		for j := range m {
			m[j] = base[j]/baseNorm*baseScale + rng.NormFloat64()*meanSeparation
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
		seed:        seed,
		labelDist:   ld,
		classMeans:  means,
		noveltyDirs: dirs,
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
	for c := range s.classMeans {
		// Covariate shift coupled to the class-mix change: a class that
		// SURGES brings novel-looking instances (new vehicle types, new
		// lighting), so its mean moves proportionally to the increase.
		// A declining class's remaining samples still look like they
		// always did, so declines shift nothing.
		if delta := s.labelDist.Prob(c) - prev.Prob(c); delta > 0 {
			dir := s.noveltyDirs[c]
			for j := range dir {
				s.classMeans[c][j] += dir[j] * featureCoupling * delta
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
	if delta := s.labelDist.Prob(surge) - prev.Prob(surge); delta > 0 {
		dir := s.noveltyDirs[surge]
		for j := range dir {
			s.classMeans[surge][j] += dir[j] * featureCoupling * delta
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
// pool. Sample i has the true class Classes[i] (the golden-model
// label) and the feature vector Features(i).
//
// A collected dataset draws its classes at once from the stream's RNG
// and its feature vectors only when Features is called: the whole
// block in one pass, from the class means in force at collection
// and a feature seed of its own. The vectors are therefore the same
// whenever, and in whatever order, datasets are read, and class draws
// never depend on whether features were drawn.
//
// A stream keeps one feature block for all its datasets: a dataset
// draws into it and holds it until another dataset of the same stream
// draws, and a dataset so displaced draws again on its next read,
// getting the same bits. Reading two datasets of one stream in
// alternation therefore re-draws on every switch.
type Dataset struct {
	Task string
	// Classes must not be modified: counts was taken from it.
	Classes []int
	// counts[c] is the number of samples of class c, counted as the
	// dataset was built.
	counts []int
	// block holds the feature rows back to back, dim values each: the
	// rows FromRows copied in, or a view of src's block while this
	// dataset holds it, nil otherwise.
	block []float64
	dim   int
	// src is the stream a collected dataset draws its features from, nil
	// for FromRows. means holds the class means at collection, class c's
	// at means[c*dim:(c+1)*dim], and seed seeds the feature draws.
	src   *Stream
	means []float64
	seed  int64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Classes) }

// Features returns sample i's feature vector: a view into the
// dataset's storage, capped at its end so that appending to it cannot
// overwrite the next sample. Callers must not modify it. On a collected
// dataset the view is valid until another dataset of the same stream
// draws its features; keep a copy of what must outlive that. A read of
// a collected dataset that does not hold its stream's block draws every
// sample's features into it.
func (d *Dataset) Features(i int) []float64 {
	if d.block == nil && d.src != nil {
		d.draw()
	}
	return d.block[i*d.dim : (i+1)*d.dim : (i+1)*d.dim]
}

// draw takes the stream's block from its holder and fills it: row by
// row, each sample's class mean plus FeatureDim noise draws from the
// stream's feature RNG reseeded with the dataset's seed.
func (d *Dataset) draw() {
	s, dim := d.src, d.dim
	if s.holder != nil {
		s.holder.block = nil
	}
	if cap(s.block) < len(d.Classes)*dim {
		s.block = make([]float64, s.maxLen*dim)
	}
	d.block, s.holder = s.block[:len(d.Classes)*dim], d
	if s.featureRNG == nil {
		s.featureRNG = rand.New(rand.NewSource(d.seed))
	} else {
		s.featureRNG.Seed(d.seed)
	}
	for i, c := range d.Classes {
		mean := d.means[c*dim : (c+1)*dim]
		f := d.block[i*dim : (i+1)*dim]
		for j := range f {
			f[j] = mean[j] + s.featureRNG.NormFloat64()*noiseSigma
		}
	}
}

// FromRows builds a dataset from explicit samples: classes[i] and
// rows[i] are sample i's class and feature vector. The rows are copied
// and must all have the same length.
func FromRows(task string, classes []int, rows [][]float64) *Dataset {
	if len(classes) != len(rows) {
		panic(fmt.Sprintf("synthdata: FromRows with %d classes and %d rows", len(classes), len(rows)))
	}
	d := &Dataset{Task: task, Classes: slices.Clone(classes)}
	for _, c := range classes {
		if c >= len(d.counts) {
			d.counts = append(d.counts, make([]int, c+1-len(d.counts))...)
		}
		d.counts[c]++
	}
	if len(rows) > 0 {
		d.dim = len(rows[0])
	}
	d.block = make([]float64, 0, len(rows)*d.dim)
	for i, r := range rows {
		if len(r) != d.dim {
			panic(fmt.Sprintf("synthdata: FromRows row %d has %d features, row 0 has %d", i, len(r), d.dim))
		}
		d.block = append(d.block, r...)
	}
	return d
}

// LabelDistribution returns the empirical class distribution over k
// classes, from the counts taken when the dataset was built.
func (d *Dataset) LabelDistribution(k int) []float64 {
	counts := make([]float64, k)
	for c, n := range d.counts {
		counts[c] = float64(n)
	}
	return mathx.Normalize(counts)
}

// Collect draws n samples from the stream into a Dataset.
func Collect(s *Stream, n int) *Dataset { return Recollect(s, n, nil) }

// Recollect is Collect reusing the storage of spare, a dataset its
// caller no longer reads: the new dataset takes over spare's class
// slice, class counts and means buffer when their capacity suffices and
// allocates them once otherwise. The feature rows need no recycling:
// they live in the stream's one block (see Dataset). spare (which may
// be nil) is left empty, so a stale holder of it sees no samples rather
// than another period's. The draws, and therefore the samples, are
// exactly Collect's.
func Recollect(s *Stream, n int, spare *Dataset) *Dataset {
	var classes, counts []int
	var means []float64
	if spare != nil {
		classes, counts, means = spare.Classes, spare.counts, spare.means
		*spare = Dataset{}
	}
	if cap(classes) < n {
		classes = make([]int, n)
	}
	classes = classes[:n]
	// SampleCDF over the mix's CDF draws exactly the classes
	// labelDist.Sample would.
	s.cdf = s.labelDist.AppendCDF(s.cdf[:0])
	counts = slices.Grow(counts[:0], len(s.cdf))[:len(s.cdf)]
	clear(counts)
	for i := range classes {
		c := dist.SampleCDF(s.rng, s.cdf)
		classes[i] = c
		counts[c]++
	}
	// Snapshot the means: AdvancePeriod and Shock move them in place
	// before the features may be drawn.
	dim := s.spec.FeatureDim
	means = slices.Grow(means[:0], len(s.classMeans)*dim)
	for _, m := range s.classMeans {
		means = append(means, m...)
	}
	s.collected++
	s.maxLen = max(s.maxLen, n)
	return &Dataset{
		Task: s.spec.Name, Classes: classes, counts: counts, dim: dim,
		src: s, means: means, seed: featureSeed(s.seed, s.collected),
	}
}

// featureSeed derives the feature seed of a stream's k-th dataset with
// the SplitMix64 finalizer, so that feature seeds do not follow the
// arithmetic progressions the callers step stream seeds by.
func featureSeed(seed, k int64) int64 {
	z := uint64(seed) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}
