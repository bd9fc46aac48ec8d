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
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"adainf/internal/app"
	"adainf/internal/mathx"
	"adainf/internal/par"
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

// before is the divergence order: distance descending, then pool index
// ascending. scorePool admits only finite distances and indices are
// unique, so the order is total, and it is exactly the order a stable
// sort on decreasing distance alone produces. Any correct sort or
// selection on it therefore yields the same ranking.
func before(a, b scored) bool {
	return a.dist > b.dist || a.dist == b.dist && a.idx < b.idx
}

// fit is one node's PCA fit, memoised against the reference set it was
// fitted on: the principal axes, flattened, and the old data's mean
// projected onto them with its norm. The key is the reference set's
// pointer alone. The pointer is a sound key: a dataset's features are a
// pure function of its seed, class-means snapshot and classes, so they
// read the same bits whether or not the stream's one feature block was
// taken over and re-drawn since, and synthdata.Recollect always returns
// a new *Dataset and empties the one it recycles, so a node's reference
// changes exactly when its OldData pointer does (the model was
// retrained). The fit holds the pointer it keys on, so no later dataset
// can reuse its address. Every memoised fit has pcaComponents axes;
// only RankByDivergence asks for another count, on a fresh fit.
//
// Because the fit is memoised, a serving run reads a reference set's
// rows only when it refits, and scorePool refits before it reads the
// pool: a retrained node's reference, last period's pool, still holds
// its stream's block then (or was never read), and nothing is drawn
// twice.
type fit struct {
	old  *synthdata.Dataset // the fitted reference set; nil when none is
	dim  int                // the feature dimension
	axes []float64          // the principal axes, dim values each
	mean []float64          // the old data's mean projected onto the axes
	norm float64            // mathx.Norm(mean)
}

// buffers are one worker's scratch: the pool's scores and one
// projected vector.
type buffers struct {
	scores []scored
	proj   []float64
}

// refit fits f to old with k components unless it already holds a fit
// of old. A failed fit leaves f empty, so the next call fits again.
func (f *fit) refit(old *synthdata.Dataset, k int) error {
	if f.old == old {
		return nil
	}
	f.old = nil
	pca, err := mathx.FitPCA(old, k)
	if err != nil {
		return fmt.Errorf("drift: PCA fit: %w", err)
	}
	// Project without centering: cosine distance is origin-sensitive,
	// and centering on the old data's mean would map that mean to the
	// zero vector.
	f.mean = pca.Project(pca.Mean())
	f.old, f.dim = old, pca.Dim()
	f.axes = pca.AppendAxes(f.axes[:0])
	f.norm = mathx.Norm(f.mean)
	return nil
}

// scorePool computes every pool sample's divergence from the old
// training data: cosine distance of the PCA-reduced feature vector to
// the old data's mean reduced feature vector, with the PCA basis
// fitted on the old samples (f, refitted unless it holds that fit).
// The scores live in the buffers, valid until their next use; nothing
// is allocated per sample. A pool whose feature length differs from
// the old data's is an error, and so is a sample whose distance is not
// finite (a NaN or Inf feature), named by its pool index. Reading the
// features through Dataset.Features draws them unless the dataset holds
// its stream's feature block.
func (b *buffers) scorePool(f *fit, old, pool *synthdata.Dataset, k int) ([]scored, error) {
	if old == nil || old.Len() == 0 {
		return nil, fmt.Errorf("drift: no old training samples")
	}
	if pool == nil || pool.Len() == 0 {
		return nil, fmt.Errorf("drift: empty pool")
	}
	if err := f.refit(old, k); err != nil {
		return nil, err
	}
	// A dataset's rows share one length, so checking the first checks
	// them all.
	if dim := len(pool.Features(0)); dim != f.dim {
		return nil, fmt.Errorf("drift: pool samples have %d features, old samples have %d", dim, f.dim)
	}
	proj := slices.Grow(b.proj[:0], len(f.mean))[:len(f.mean)]
	b.proj = proj
	xs := slices.Grow(b.scores[:0], pool.Len())[:pool.Len()]
	b.scores = xs
	for i := range xs {
		project(proj, f.axes, pool.Features(i))
		// mathx.CosineDistance with the old mean's norm taken once: the
		// same expression, zero-norm rule and clamp, so the same bits.
		// The comparisons clamp as math.Max(-1, math.Min(1, sim)) does,
		// ±0 and NaN included.
		var sim float64
		if na := mathx.Norm(proj); na != 0 && f.norm != 0 {
			sim = mathx.Dot(proj, f.mean) / (na * f.norm)
			if sim > 1 {
				sim = 1
			} else if sim < -1 {
				sim = -1
			}
		}
		d := 1 - sim
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("drift: pool sample %d has non-finite divergence %v", i, d)
		}
		xs[i] = scored{idx: i, dist: d}
	}
	return xs, nil
}

// project sets proj[c] to mathx.Dot(v, axis c) for every axis of the
// flattened axes. Each sum adds its products in Dot's order, so the
// bits are Dot's.
func project(proj, axes, v []float64) {
	for c := range proj {
		axis := axes[c*len(v) : (c+1)*len(v)]
		var s float64
		for j, x := range v {
			s += x * axis[j]
		}
		proj[c] = s
	}
}

// RankByDivergence orders pool sample indices by decreasing divergence
// from the old training data (see scorePool), ties broken by pool
// index. It fits afresh, so when old and pool come from one stream it
// draws old's features and then re-draws pool's, which old displaced.
func RankByDivergence(old, pool *synthdata.Dataset, pcaComponents int) ([]int, error) {
	xs, err := new(buffers).scorePool(new(fit), old, pool, pcaComponents)
	if err != nil {
		return nil, err
	}
	return appendRanked(make([]int, 0, len(xs)), xs, 0, len(xs)), nil
}

// appendRanked appends to dst the pool indices of the samples ranked
// skip+1 to skip+n in divergence order. It orders only those
// skip+n samples, in O(len(xs) + (skip+n) log len(xs)), and reorders
// xs.
func appendRanked(dst []int, xs []scored, skip, n int) []int {
	h := newRankHeap(xs)
	for range skip {
		h.pop()
	}
	for range n {
		dst = append(dst, h.pop().idx)
	}
	return dst
}

// rankHeap is a binary heap whose root is the first sample in
// divergence order. Building it is O(n) and each pop O(log n), so
// reading the top k of n samples costs O(n + k log n) instead of a
// full sort. It is typed rather than a container/heap so that pops do
// not box.
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
		if l < len(h) && before(h[l], h[first]) {
			first = l
		}
		if r := l + 1; r < len(h) && before(h[r], h[first]) {
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

// Scratch is the state period-start detection reuses across nodes and
// periods: one memoised PCA fit per node (see fit) and one set of
// buffers per worker. Its zero value is ready to use. It is not safe
// for concurrent use; DetectApps runs its own workers. Nothing a
// detection returns aliases it.
type Scratch struct {
	fits    map[*app.NodeInstance]*fit
	workers []buffers
}

// fitFor returns the node's memoised fit, empty on first use.
func (sc *Scratch) fitFor(ni *app.NodeInstance) *fit {
	f := sc.fits[ni]
	if f == nil {
		if sc.fits == nil {
			sc.fits = make(map[*app.NodeInstance]*fit)
		}
		f = new(fit)
		sc.fits[ni] = f
	}
	return f
}

// buffers returns the first n workers' buffers, growing the set.
func (sc *Scratch) buffers(n int) []buffers {
	if len(sc.workers) < n {
		sc.workers = append(sc.workers, make([]buffers, n-len(sc.workers))...)
	}
	return sc.workers[:n]
}

// DetectNode runs the S-growth detection loop for one node with fresh
// buffers. The probe is deterministic given the pool and reads no
// random numbers: rng is unused, and stays only because the benchmark
// module's layer benchmark calls DetectNode with it.
func DetectNode(ni *app.NodeInstance, cfg Config, rng *rand.Rand) (Report, error) {
	return new(Scratch).DetectNode(ni, cfg)
}

// DetectNode is the package-level DetectNode reusing the scratch's
// buffers and the node's memoised fit.
func (sc *Scratch) DetectNode(ni *app.NodeInstance, cfg Config) (Report, error) {
	return sc.buffers(1)[0].detect(ni, sc.fitFor(ni), cfg)
}

// detect is DetectNode on one worker's buffers and the node's fit.
func (b *buffers) detect(ni *app.NodeInstance, f *fit, cfg Config) (Report, error) {
	rep := Report{Node: ni.Node.Name, InitialAccuracy: ni.InitialAccuracy}
	if err := cfg.fillDefaults(); err != nil {
		return rep, err
	}
	xs, err := b.scorePool(f, ni.OldData, ni.Pool, pcaComponents)
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
// reports keyed by node name (see DetectApps).
func (sc *Scratch) DetectApp(inst *app.Instance, cfg Config) (map[string]Report, error) {
	out, err := sc.DetectApps([]*app.Instance{inst}, cfg)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// DetectApps runs DetectApp for each instance and returns the reports
// in instance order. The nodes of all the instances run on up to
// GOMAXPROCS workers: a node's probe reads only its own stream,
// datasets, model state and memoised fit, and each worker scores in
// its own buffers, so the reports are those of a serial pass. The
// error is the one a serial pass would meet first. An instance listed
// twice is detected once, and both entries share its reports.
func (sc *Scratch) DetectApps(insts []*app.Instance, cfg Config) ([]map[string]Report, error) {
	type unit struct {
		ni  *app.NodeInstance
		f   *fit
		rep Report
		err error
	}
	var units []unit
	for i, inst := range insts {
		if slices.Index(insts[:i], inst) >= 0 {
			continue
		}
		for _, ni := range inst.Nodes() {
			units = append(units, unit{ni: ni, f: sc.fitFor(ni)})
		}
	}
	workers := sc.buffers(max(min(runtime.GOMAXPROCS(0), len(units)), 1))
	par.Units(len(workers), len(units), func(w, k int) {
		u := &units[k]
		u.rep, u.err = workers[w].detect(u.ni, u.f, cfg)
	})
	out := make([]map[string]Report, len(insts))
	next := 0
	for i, inst := range insts {
		if j := slices.Index(insts[:i], inst); j >= 0 {
			out[i] = out[j]
			continue
		}
		reps := make(map[string]Report, len(inst.Nodes()))
		for _, u := range units[next : next+len(inst.Nodes())] {
			if u.err != nil {
				return nil, fmt.Errorf("drift: app %q node %q: %w", inst.App.Name, u.ni.Node.Name, u.err)
			}
			reps[u.ni.Node.Name] = u.rep
		}
		next += len(inst.Nodes())
		out[i] = reps
	}
	return out, nil
}

// SelectRetrainSamples picks the n most divergent unused pool samples
// for a retraining task (§3.3.2) and marks them consumed. It returns
// the selected sample indices (at most the node's remaining budget).
// It ranks through the node's memoised fit and orders only the first
// UsedSamples+n samples, so successive jobs of a period fit the PCA
// once.
func (sc *Scratch) SelectRetrainSamples(ni *app.NodeInstance, n int) ([]int, error) {
	if n <= 0 {
		return nil, nil
	}
	xs, err := sc.buffers(1)[0].scorePool(sc.fitFor(ni), ni.OldData, ni.Pool, pcaComponents)
	if err != nil {
		return nil, err
	}
	// Skip the samples other jobs already consumed: the ranking is
	// deterministic within a period, so the first UsedSamples entries
	// are exactly the ones taken before.
	start := ni.UsedSamples
	if start >= len(xs) {
		return nil, nil
	}
	n = min(n, len(xs)-start)
	picked := appendRanked(make([]int, 0, n), xs, start, n)
	ni.ConsumeSamples(n)
	return picked, nil
}
