package serving

import (
	"math"

	"adainf/internal/dist"
	"adainf/internal/simtime"
)

// fastForward is the steady-state session memo: when a session's
// planning inputs — the placement, every lane's quantized GPU share,
// every app's predicted and actual request counts, and a digest of
// every app's mutable planning-relevant state — exactly repeat an
// earlier session of the same period, the earlier session's executed
// outcome is replayed instead of planning and executing again. Only
// sessions that mutated nothing (no retraining progress) are memoized,
// so a hit is guaranteed to leave the simulation in the same state the
// full execution would have. The table is cleared at every period boundary because the
// period plan, the pool/live distributions, and the scheduler's
// per-period caches all change there.
//
// Fast-forward is only enabled for methods implementing
// sched.SteadyStatePlanner: the replay skips PlanSession entirely, so
// the plan must be a pure function of the memo key's inputs.
type fastForward struct {
	table map[string]*sessionMemo
	buf   []byte
	hits  int
}

// sessionMemo is the replayable outcome of one executed session.
type sessionMemo struct {
	overhead simtime.Duration
	makespan simtime.Duration
	jobs     []ffJob
}

// ffJob is one executed job's outcome: everything runJob fed the
// recorder, minus the per-request RNG draws, which replay live to keep
// the shared RNG stream identical. An entry with shed > 0 is a
// shed-only record — no job ran; replay re-sheds the requests at the
// same point in the session's emission order.
type ffJob struct {
	st         *appState
	lane       int
	shed       int
	actual     int
	fraction   float64
	lead       simtime.Duration
	latency    simtime.Duration
	inferTotal simtime.Duration
	met        bool
	leaves     []ffLeaf
}

// ffLeaf is one leaf model's scoring inputs.
type ffLeaf struct {
	live        *dist.Categorical
	probs       []float64
	usedUpdated bool
}

func newFastForward() *fastForward {
	return &fastForward{table: make(map[string]*sessionMemo)}
}

// reset clears the memo table at a period boundary.
func (f *fastForward) reset() {
	clear(f.table)
}

// laneKey builds the lookup key into f.buf (reused across sessions)
// and returns it; the caller must copy before storing. The placement
// digest and every lane's quantized share make a replay match only an
// execution that ran under the same app→GPU assignment and the same
// per-lane compute splits (on the one-lane cluster the digest is a
// constant and there is one share). alive is the lane-liveness mask.
// faultWords is empty with faults disabled and otherwise carries each
// app's session fault decisions; admitWords carries the per-app
// admission-gate decisions and is nil without gpu-crash faults. Both add
// no key bytes when off, and otherwise a degraded or faulted session can
// only replay an execution that ran under identical injections and
// admission state.
func (f *fastForward) laneKey(placement, alive uint64, shares []float64, predicted, actual [][]int, si int, states []*appState, faultWords, admitWords []uint64) []byte {
	b := f.buf[:0]
	b = appendU64(b, placement)
	b = appendU64(b, alive)
	for _, s := range shares {
		b = appendU64(b, math.Float64bits(s))
	}
	for i, st := range states {
		b = appendU64(b, uint64(predicted[i][si]))
		b = appendU64(b, uint64(actual[i][si]))
		b = appendU64(b, st.digest())
	}
	for _, w := range faultWords {
		b = appendU64(b, w)
	}
	for _, w := range admitWords {
		b = appendU64(b, w)
	}
	f.buf = b
	return b
}

// lookup is the two-phase memo check: the first sighting of a key
// records a nil sentinel and returns (nil, false) — the session runs
// fully with no capture overhead; the second sighting returns
// (nil, true), asking the caller to capture the execution into a memo;
// every later sighting returns the memo for replay. Capturing only
// keys that demonstrably repeat keeps workloads whose inputs never
// repeat (e.g. eight independent arrival streams) from paying the
// capture allocations on every session.
func (f *fastForward) lookup(key []byte) (m *sessionMemo, capture bool) {
	m, seen := f.table[string(key)]
	if m != nil {
		return m, false
	}
	if seen {
		return nil, true
	}
	f.table[string(key)] = nil
	return nil, false
}

// store memoizes an executed session under the key.
func (f *fastForward) store(key []byte, m *sessionMemo) {
	f.table[string(key)] = m
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// digest fingerprints the app's mutable state that can influence
// session planning or execution: per-node remaining pool samples,
// fractional retraining carry, the updated-this-period flag, and the
// model-state version (bumped on every Train). The profile's MemDigest
// ties the fingerprint to the GPU-memory configuration the profiles
// were built under. Nodes hash in instance order, which is fixed for
// the run.
//
// The value is cached per app and recomputed only after a mutation
// (retrain application, incremental retraining progress, or a period
// boundary) marks it stale — in steady state the per-session cost is a
// flag check, not a walk over every node.
func (st *appState) digest() uint64 {
	if st.digestOK {
		return st.digestCache
	}
	st.digestCache = st.computeDigest()
	st.digestOK = true
	return st.digestCache
}

func (st *appState) computeDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h = (h ^ v) * prime64
	}
	mix(st.prof.MemDigest)
	for _, ni := range st.inst.Nodes() {
		name := ni.Node.Name
		mix(uint64(ni.RemainingSamples()))
		mix(math.Float64bits(st.carry[name]))
		if st.updated[name] {
			mix(1)
		} else {
			mix(0)
		}
		mix(ni.State.Version())
	}
	return h
}
