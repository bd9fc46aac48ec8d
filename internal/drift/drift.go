// Package drift implements AdaInf's data-drift impact detection (§3.2):
// it identifies which models of an application are impacted by drift in
// the newly collected training data, and by how much.
//
// The mechanism follows the paper exactly. For a model m:
//
//  1. take the S most divergent new samples — divergence is the cosine
//     distance between a sample's PCA-reduced feature vector and the
//     mean (PCA-reduced) feature vector of the old training samples;
//  2. probe the current model on those S samples, yielding accuracy
//     I'_m, and compare against the initially trained model's accuracy
//     I_m: the model is impacted if I'_m < I_m;
//  3. grow S step by step and repeat until the decision is unchanged
//     for n consecutive rounds (Table 2);
//  4. the impact degree is I_m − I'_m.
package drift

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"adainf/internal/app"
	"adainf/internal/mathx"
	"adainf/internal/synthdata"
)

// Config parameterizes the detector. Zero values take the paper's
// defaults (§4): S starts at 3% of the pool and grows by 3% per round,
// and the decision must hold for 4 consecutive rounds.
type Config struct {
	InitialS     float64 // initial S as a fraction of the pool
	StepS        float64 // per-round S increment (fraction)
	StableRounds int     // n: consecutive identical results to stop
}

const (
	// pcaComponents is the number of principal components features are
	// reduced to before ranking.
	pcaComponents = 4
	// impactMargin guards the I'_m < I_m comparison against sampling
	// noise on small probes; a model is impacted when
	// I'_m < I_m − impactMargin. 0.01 is above the empirical class-mix
	// sampling noise of period pools, far below real shock impact
	// degrees (~0.1–0.4).
	impactMargin = 0.01
)

// fillDefaults rejects out-of-range fields and replaces zero fields by
// the defaults.
func (c *Config) fillDefaults() error {
	// The negated comparisons also reject NaN.
	if !(c.InitialS >= 0 && c.InitialS <= 1) {
		return fmt.Errorf("drift: Config.InitialS = %v, want a fraction in [0, 1]", c.InitialS)
	}
	if !(c.StepS >= 0 && c.StepS <= 1) {
		return fmt.Errorf("drift: Config.StepS = %v, want a fraction in [0, 1]", c.StepS)
	}
	if c.StableRounds < 0 {
		return fmt.Errorf("drift: Config.StableRounds = %d, want >= 0", c.StableRounds)
	}
	if c.InitialS == 0 {
		c.InitialS = 0.03
	}
	if c.StepS == 0 {
		c.StepS = 0.03
	}
	if c.StableRounds == 0 {
		c.StableRounds = 4
	}
	return nil
}

// Round records one S-growth step of the detection loop (Table 2 rows).
type Round struct {
	SFraction     float64
	SampleCount   int
	ProbeAccuracy float64
	Impacted      bool
}

// Report is the detection outcome for one model.
type Report struct {
	Node string
	// Impacted is the converged decision.
	Impacted bool
	// ImpactDegree is max(0, I_m − I'_m) at the final round; zero when
	// not impacted.
	ImpactDegree float64
	// ProbeAccuracy is I'_m at the final round.
	ProbeAccuracy float64
	// InitialAccuracy is I_m.
	InitialAccuracy float64
	// FinalS is the S fraction the loop stopped at.
	FinalS float64
	// Rounds traces every step (Table 2).
	Rounds []Round
}

// scored is one pool sample's divergence from the old training data.
type scored struct {
	idx  int
	dist float64
}

// rankCmp is the divergence order: distance descending, then pool
// index ascending. scorePool admits only finite distances and indices
// are unique, so the order is total, and it is exactly the order a
// stable sort on decreasing distance alone produces. Any correct sort
// or selection on it therefore yields the same ranking.
func rankCmp(a, b scored) int {
	if c := cmp.Compare(b.dist, a.dist); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// Scratch holds the buffers period-start detection reuses across
// nodes and periods: the old samples' feature rows the PCA is fitted
// on and the pool's scores. Its zero value is ready to use. It is not
// safe for concurrent use, and nothing a detection returns aliases it.
type Scratch struct {
	rows   [][]float64
	scores []scored
}

// scorePool computes every pool sample's divergence from the old
// training data: cosine distance of the PCA-reduced feature vector to
// the old data's mean reduced feature vector, with the PCA basis
// fitted on the old samples. The scores live in the scratch's buffer,
// valid until its next use; nothing is allocated per sample. A pool
// whose feature length differs from the old data's is an error, and so
// is a sample whose distance is not finite (a NaN or Inf feature),
// named by its pool index. Reading the features through
// Dataset.Features draws them if nothing has read them yet.
func (sc *Scratch) scorePool(old, pool *synthdata.Dataset, pcaComponents int) ([]scored, error) {
	if old == nil || old.Len() == 0 {
		return nil, fmt.Errorf("drift: no old training samples")
	}
	if pool == nil || pool.Len() == 0 {
		return nil, fmt.Errorf("drift: empty pool")
	}
	sc.rows = sc.rows[:0]
	for i := range old.Len() {
		sc.rows = append(sc.rows, old.Features(i))
	}
	pca, err := mathx.FitPCA(sc.rows, pcaComponents)
	clear(sc.rows) // drop the references to the old samples
	if err != nil {
		return nil, fmt.Errorf("drift: PCA fit: %w", err)
	}
	// Project without centering: cosine distance is origin-sensitive,
	// and centering on the old data's mean would map that mean to the
	// zero vector.
	oldMean := pca.Project(pca.Mean())
	// mathx.CosineDistance with the old mean's norm taken once: the
	// same expression, zero-norm rule and clamp, so the same bits.
	nb := mathx.Norm(oldMean)
	proj := make([]float64, pca.Components())
	xs := slices.Grow(sc.scores[:0], pool.Len())[:pool.Len()]
	sc.scores = xs
	// A dataset's rows share one length, so checking the first checks
	// them all.
	if dim := len(pool.Features(0)); dim != pca.Dim() {
		return nil, fmt.Errorf("drift: pool samples have %d features, old samples have %d", dim, pca.Dim())
	}
	for i := range xs {
		pca.ProjectInto(proj, pool.Features(i))
		var sim float64
		if na := mathx.Norm(proj); na != 0 && nb != 0 {
			sim = math.Max(-1, math.Min(1, mathx.Dot(proj, oldMean)/(na*nb)))
		}
		d := 1 - sim
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("drift: pool sample %d has non-finite divergence %v", i, d)
		}
		xs[i] = scored{idx: i, dist: d}
	}
	return xs, nil
}

// RankByDivergence orders pool sample indices by decreasing divergence
// from the old training data (see scorePool), ties broken by pool
// index.
func RankByDivergence(old, pool *synthdata.Dataset, pcaComponents int) ([]int, error) {
	xs, err := new(Scratch).scorePool(old, pool, pcaComponents)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(xs, rankCmp)
	out := make([]int, len(xs))
	for i, s := range xs {
		out[i] = s.idx
	}
	return out, nil
}

// rankHeap is a binary heap whose root is the first sample in rankCmp
// order. Building it is O(n) and each pop O(log n), so reading the top
// k of n samples costs O(n + k log n) instead of a full sort. It is
// typed rather than a container/heap so that pops do not box.
type rankHeap []scored

func newRankHeap(xs []scored) rankHeap {
	h := rankHeap(xs)
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h rankHeap) siftDown(i int) {
	for {
		first, l := i, 2*i+1
		if l < len(h) && rankCmp(h[l], h[first]) < 0 {
			first = l
		}
		if r := l + 1; r < len(h) && rankCmp(h[r], h[first]) < 0 {
			first = r
		}
		if first == i {
			return
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// pop removes and returns the first remaining sample.
func (h *rankHeap) pop() scored {
	top, last := (*h)[0], len(*h)-1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.siftDown(0)
	return top
}

// DetectNode runs the S-growth detection loop for one node with fresh
// buffers. The probe is deterministic given the pool and reads no
// random numbers: rng is unused, and stays only because the benchmark
// module's layer benchmark calls DetectNode with it.
func DetectNode(ni *app.NodeInstance, cfg Config, rng *rand.Rand) (Report, error) {
	return new(Scratch).DetectNode(ni, cfg)
}

// DetectNode is the package-level DetectNode reusing the scratch's
// buffers.
func (sc *Scratch) DetectNode(ni *app.NodeInstance, cfg Config) (Report, error) {
	rep := Report{Node: ni.Node.Name, InitialAccuracy: ni.InitialAccuracy}
	if err := cfg.fillDefaults(); err != nil {
		return rep, err
	}
	xs, err := sc.scorePool(ni.OldData, ni.Pool, pcaComponents)
	if err != nil {
		return rep, err
	}
	poolDist, err := ni.PoolDist()
	if err != nil {
		return rep, err
	}
	full := ni.FullStructure()

	// The probe's CorrectProb depends only on the sample's class (the
	// state, pool distribution, and structure are fixed for the whole
	// detection loop), so evaluate it once per class up front.
	probByClass := make([]float64, poolDist.K())
	for c := range probByClass {
		probByClass[c] = ni.State.CorrectProb(c, poolDist, full)
	}

	stable := 0
	var last bool
	// A round reads only the n most divergent samples, so the pool is
	// heapified once and each round pops just the samples its S growth
	// adds. covered/sum extend the probe sum incrementally: n never
	// shrinks across rounds, and appending to a left-to-right running
	// sum in rank order is bit-identical to re-summing the top n of a
	// full ranking from scratch.
	ranked := newRankHeap(xs)
	covered := 0
	var sum float64
	for s := cfg.InitialS; ; s += cfg.StepS {
		if s > 1 {
			s = 1
		}
		n := int(s * float64(len(xs)))
		if n < 1 {
			n = 1
		}
		// Probe accuracy I'_m on the S most divergent samples. The
		// probe is the model's expected accuracy over the chosen
		// samples: the real system's probe errors are deterministic
		// given the samples, so the Bernoulli abstraction would only
		// add artificial noise here.
		for ; covered < n; covered++ {
			sum += probByClass[ni.Pool.Classes[ranked.pop().idx]]
		}
		acc := sum / float64(n)
		impacted := acc < rep.InitialAccuracy-impactMargin
		rep.Rounds = append(rep.Rounds, Round{
			SFraction: s, SampleCount: n, ProbeAccuracy: acc, Impacted: impacted,
		})
		rep.ProbeAccuracy = acc
		rep.FinalS = s
		if len(rep.Rounds) > 1 && impacted == last {
			stable++
		} else {
			stable = 1
		}
		last = impacted
		if stable >= cfg.StableRounds || s >= 1 {
			rep.Impacted = impacted
			break
		}
	}
	if rep.Impacted {
		rep.ImpactDegree = rep.InitialAccuracy - rep.ProbeAccuracy
		if rep.ImpactDegree < 0 {
			rep.ImpactDegree = 0
		}
	}
	return rep, nil
}

// DetectApp runs detection for every node of an instance, returning
// reports keyed by node name.
func DetectApp(inst *app.Instance, cfg Config) (map[string]Report, error) {
	return new(Scratch).DetectApp(inst, cfg)
}

// DetectApp is the package-level DetectApp reusing the scratch's
// buffers across the instance's nodes.
func (sc *Scratch) DetectApp(inst *app.Instance, cfg Config) (map[string]Report, error) {
	out := make(map[string]Report, len(inst.Nodes()))
	for _, ni := range inst.Nodes() {
		rep, err := sc.DetectNode(ni, cfg)
		if err != nil {
			return nil, fmt.Errorf("drift: app %q node %q: %w", inst.App.Name, ni.Node.Name, err)
		}
		out[ni.Node.Name] = rep
	}
	return out, nil
}

// SelectRetrainSamples picks the n most divergent unused pool samples
// for a retraining task (§3.3.2) and marks them consumed. It returns
// the selected sample indices (at most the node's remaining budget).
func SelectRetrainSamples(ni *app.NodeInstance, n int, pcaComponents int) ([]int, error) {
	if n <= 0 {
		return nil, nil
	}
	ranked, err := RankByDivergence(ni.OldData, ni.Pool, pcaComponents)
	if err != nil {
		return nil, err
	}
	// Skip the samples other jobs already consumed: the ranking is
	// deterministic within a period, so the first UsedSamples entries
	// are exactly the ones taken before.
	start := ni.UsedSamples
	if start >= len(ranked) {
		return nil, nil
	}
	avail := len(ranked) - start
	if n > avail {
		n = avail
	}
	picked := ranked[start : start+n]
	ni.ConsumeSamples(n)
	return append([]int(nil), picked...), nil
}
