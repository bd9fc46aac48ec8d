package gpumem

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"adainf/internal/mathx"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// Default PCIe transfer rates (bytes/second). PIN (page-locked) memory
// transfers avoid the staging copy and run near the bus limit [13].
const (
	DefaultH2DPageableBps = 6e9
	DefaultH2DPinnedBps   = 12e9
	DefaultD2HBps         = 6.5e9
)

// Config parameterizes a Manager.
type Config struct {
	// GPUBytes is the GPU memory capacity managed here.
	GPUBytes int64
	// PinBytes is the PIN (page-locked) portion of CPU memory.
	PinBytes int64
	// Transfer rates in bytes/second; zero values take the defaults.
	H2DPageableBps float64
	H2DPinnedBps   float64
	D2HBps         float64
	// Policy chooses eviction victims; nil defaults to LRU.
	Policy Policy
	// Audit verifies every makeRoom call's eviction order (victims
	// taken by descending policy score, seq ascending on ties, the
	// working set exempt): it also sorts the call's candidates in full
	// and requires the selected victims to equal the sorted prefix.
	// The first violation is reported by CheckInvariants. Read-only:
	// auditing never changes behaviour.
	Audit bool
	// Trace, when non-nil, receives an eviction event per victim
	// (victim identity, policy score, PIN placement). Read-only
	// observability: tracing never changes behaviour.
	Trace *telemetry.Collector
	// FailAlloc, when non-nil, is consulted before each allocation that
	// would make a content resident: returning true injects a transient
	// allocation failure — no eviction runs, the access streams from
	// CPU memory instead (the same graceful out-of-core path an
	// over-capacity working set takes), and the content stays
	// non-resident until a later acquire succeeds. Deterministic fault
	// injectors plug in here; nil never fails.
	FailAlloc func(id ContentID) bool
}

func (c *Config) fillDefaults() {
	if c.H2DPageableBps == 0 {
		c.H2DPageableBps = DefaultH2DPageableBps
	}
	if c.H2DPinnedBps == 0 {
		c.H2DPinnedBps = DefaultH2DPinnedBps
	}
	if c.D2HBps == 0 {
		c.D2HBps = DefaultD2HBps
	}
	if c.Policy == nil {
		c.Policy = LRUPolicy{}
	}
}

// Stats aggregates the manager's communication and cache behaviour.
type Stats struct {
	H2DBytes   int64
	D2HBytes   int64
	H2DTime    simtime.Duration
	D2HTime    simtime.Duration
	Hits       uint64
	Misses     uint64
	ColdLoads  uint64
	Evictions  uint64
	PinPlaced  uint64
	PinRefills uint64 // H2D transfers served from PIN memory
	// Streamed counts out-of-core accesses: contents that could not be
	// made resident (the working set exceeds GPU capacity) and were
	// streamed from CPU memory on every touch instead, as in
	// unified-memory out-of-core DNN execution.
	StreamedBytes int64
	StreamedTime  simtime.Duration
	// AllocFaults counts allocations denied by Config.FailAlloc; each
	// denial degraded to a streamed access. Always zero without an
	// installed failure hook.
	AllocFaults uint64
}

// CommTime returns total CPU–GPU communication time, including
// out-of-core streaming.
func (s Stats) CommTime() simtime.Duration { return s.H2DTime + s.D2HTime + s.StreamedTime }

// Access is one content touch within an Acquire call.
type Access struct {
	Content Content
	// Phase of the task performing the access.
	Phase Phase
	// Model is the accessing model's name (cross-task classification).
	Model string
	// JobID identifies the accessing job (cross-job classification).
	JobID uint64
}

// Manager simulates the GPU memory of one device (or one MPS
// partition). It is not safe for concurrent use; the simulator drives
// it from a single goroutine in virtual-time order.
type Manager struct {
	cfg     Config
	entries map[ContentID]*entry
	gpuUsed int64
	pinUsed int64
	stats   Stats
	seq     uint64

	// residents lists exactly the entries with loc == locGPU, so
	// makeRoom scans eviction candidates without walking the whole
	// entries map. Order is arbitrary (swap-removal, map-order
	// releases); determinism comes from evictionCmp, a strict total
	// order via seq, so the victims never depend on this order.
	residents []*entry
	// stampGen marks the current Acquire call; entries whose stamp
	// matches are in the working set and exempt from eviction.
	stampGen uint64
	// scratch is makeRoom's reusable candidate buffer; auditScratch
	// holds the audit's reference sort of it.
	scratch      []scoredEntry
	auditScratch []scoredEntry

	reuse map[ReuseClass][]float64
	cross map[CrossKind][]float64
	// Running per-type reuse means feed the priority policy's R_c.
	typeSum map[ReuseClass]float64
	typeN   map[ReuseClass]int

	// auditErr holds the first eviction-order violation found under
	// Config.Audit (see CheckInvariants).
	auditErr error
}

type scoredEntry struct {
	e     *entry
	score float64
}

func (m *Manager) residentAdd(e *entry) {
	e.resIdx = len(m.residents)
	m.residents = append(m.residents, e)
}

func (m *Manager) residentRemove(e *entry) {
	last := len(m.residents) - 1
	m.residents[e.resIdx] = m.residents[last]
	m.residents[e.resIdx].resIdx = e.resIdx
	m.residents[last] = nil
	m.residents = m.residents[:last]
	e.resIdx = -1
}

// NewManager returns a manager over the config. It panics on a
// non-positive GPU capacity or negative PIN capacity.
func NewManager(cfg Config) *Manager {
	cfg.fillDefaults()
	if cfg.GPUBytes <= 0 {
		panic(fmt.Sprintf("gpumem: GPU capacity %d must be positive", cfg.GPUBytes))
	}
	if cfg.PinBytes < 0 {
		panic(fmt.Sprintf("gpumem: negative PIN capacity %d", cfg.PinBytes))
	}
	return &Manager{
		cfg:     cfg,
		entries: make(map[ContentID]*entry),
		reuse:   make(map[ReuseClass][]float64),
		cross:   make(map[CrossKind][]float64),
		typeSum: make(map[ReuseClass]float64),
		typeN:   make(map[ReuseClass]int),
	}
}

// Capacity returns the GPU memory capacity in bytes.
func (m *Manager) Capacity() int64 { return m.cfg.GPUBytes }

// GPUUsed returns the bytes currently resident in GPU memory.
func (m *Manager) GPUUsed() int64 { return m.gpuUsed }

// PinUsed returns the bytes currently held in PIN memory.
func (m *Manager) PinUsed() int64 { return m.pinUsed }

// Stats returns a snapshot of the communication statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Policy returns the active eviction policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// Resident reports whether the content is currently in GPU memory.
func (m *Manager) Resident(id ContentID) bool {
	e, ok := m.entries[id]
	return ok && e.loc == locGPU
}

// SeedTypeReuse installs an offline-profiled mean reuse latency (ms)
// for a reuse class, as AdaInf does before serving starts (§3.4.2).
func (m *Manager) SeedTypeReuse(class ReuseClass, meanMs float64, weight int) {
	if weight <= 0 {
		weight = 1
	}
	m.typeSum[class] += meanMs * float64(weight)
	m.typeN[class] += weight
}

// TypeReuseMeanMs returns the manager's current mean reuse latency (ms)
// of the class, or -1 if no observation exists yet.
func (m *Manager) TypeReuseMeanMs(class ReuseClass) float64 {
	if m.typeN[class] == 0 {
		return -1
	}
	return m.typeSum[class] / float64(m.typeN[class])
}

// ReuseCDF returns the empirical CDF (milliseconds) of reuse times
// observed for the class (Fig. 12a).
func (m *Manager) ReuseCDF(class ReuseClass) *mathx.CDF {
	return mathx.NewCDF(m.reuse[class])
}

// CrossCDF returns the empirical CDF (milliseconds) of cross-task or
// cross-job reuse times (Figs. 12b, 13).
func (m *Manager) CrossCDF(kind CrossKind) *mathx.CDF {
	return mathx.NewCDF(m.cross[kind])
}

// Acquire makes every content in accs resident simultaneously, charging
// CPU–GPU transfer time for misses and evicting other contents as
// needed. When the working set itself exceeds GPU capacity, the
// overflow contents are streamed from CPU memory on every touch
// (out-of-core execution as in OC-DNN [17]) rather than failing — the
// steep communication cost of that regime is what bends the worst-case
// latency back up at large batch sizes (Fig. 8). It returns the total
// communication time of the call.
func (m *Manager) Acquire(now simtime.Instant, accs []Access) (simtime.Duration, error) {
	// Stamp the working set instead of building a per-call lookup map.
	// Entries created mid-call are stamped at creation (acquireOne).
	m.stampGen++
	for _, a := range accs {
		if a.Content.Bytes <= 0 {
			return 0, fmt.Errorf("gpumem: content %v has size %d", a.Content.ID, a.Content.Bytes)
		}
		if e, ok := m.entries[a.Content.ID]; ok {
			e.stamp = m.stampGen
		}
	}
	var comm simtime.Duration
	for _, a := range accs {
		comm += m.acquireOne(now, a)
	}
	return comm, nil
}

func (m *Manager) acquireOne(now simtime.Instant, a Access) simtime.Duration {
	id := a.Content.ID
	e, ok := m.entries[id]
	if !ok {
		e = &entry{content: a.Content, loc: locPageable, seq: m.seq, resIdx: -1, stamp: m.stampGen}
		m.seq++
		m.entries[id] = e
	} else if e.content.Bytes != a.Content.Bytes {
		// The content was re-materialized at a different size (e.g. an
		// intermediate re-produced for a different batch). Retire the
		// old allocation wherever it lives and reload at the new size.
		switch e.loc {
		case locGPU:
			m.gpuUsed -= e.content.Bytes
			m.residentRemove(e)
		case locPinned:
			m.pinUsed -= e.content.Bytes
		}
		e.loc = locPageable
		e.content.Bytes = a.Content.Bytes
	}

	var comm simtime.Duration
	switch {
	case e.loc == locGPU:
		m.stats.Hits++
	default:
		m.stats.Misses++
		// A transient allocation failure denies residency before any
		// eviction runs; the access degrades to the streaming path below
		// and the content stays non-resident until a later acquire
		// succeeds.
		var fits bool
		if m.cfg.FailAlloc != nil && m.cfg.FailAlloc(id) {
			m.stats.AllocFaults++
			e.faulted = true
		} else {
			// Make room first.
			var d simtime.Duration
			d, fits = m.makeRoom(now, a.Content.Bytes)
			comm += d
		}
		if !fits {
			// Out-of-core: stream the content through GPU memory for
			// this access only. Born-on-GPU contents stream out, CPU
			// contents stream in; either way the bus is crossed once.
			t := bytesTime(a.Content.Bytes, m.cfg.H2DPageableBps)
			comm += t
			m.stats.StreamedTime += t
			m.stats.StreamedBytes += a.Content.Bytes
			e.everLoaded = true
			m.recordReuse(now, e, a)
			e.lastAccess = now
			e.lastPhase = a.Phase
			e.lastModel = a.Model
			e.lastJob = a.JobID
			e.hasAccess = true
			e.content.SLOms = a.Content.SLOms
			return comm
		}
		// Charge the host-to-device transfer. Contents produced by GPU
		// computation are born resident on first touch.
		switch {
		case !e.everLoaded && a.Content.ProducedOnGPU:
			m.stats.ColdLoads++
		case e.loc == locPinned:
			t := bytesTime(a.Content.Bytes, m.cfg.H2DPinnedBps)
			comm += t
			m.stats.H2DTime += t
			m.stats.H2DBytes += a.Content.Bytes
			m.stats.PinRefills++
			m.pinUsed -= a.Content.Bytes
		default: // pageable, or cold load of CPU-born content
			t := bytesTime(a.Content.Bytes, m.cfg.H2DPageableBps)
			comm += t
			m.stats.H2DTime += t
			m.stats.H2DBytes += a.Content.Bytes
			if !e.everLoaded {
				m.stats.ColdLoads++
			}
		}
		e.loc = locGPU
		e.faulted = false // a successful allocation recovers the entry
		m.gpuUsed += a.Content.Bytes
		m.residentAdd(e)
	}
	e.everLoaded = true

	m.recordReuse(now, e, a)
	e.lastAccess = now
	e.lastPhase = a.Phase
	e.lastModel = a.Model
	e.lastJob = a.JobID
	e.hasAccess = true
	// Refresh mutable attributes (e.g. SLO changes across jobs).
	e.content.SLOms = a.Content.SLOms
	return comm
}

// recordReuse classifies and stores the reuse gap since the entry's
// previous access.
func (m *Manager) recordReuse(now simtime.Instant, e *entry, a Access) {
	if !e.hasAccess {
		return
	}
	gapMs := now.Sub(e.lastAccess).Seconds() * 1e3
	if gapMs < 0 {
		return
	}
	class := ReuseClass{Kind: e.content.ID.Kind, Phase: a.Phase}
	m.reuse[class] = append(m.reuse[class], gapMs)
	m.typeSum[class] += gapMs
	m.typeN[class]++

	switch e.content.ID.Kind {
	case KindParam:
		if e.lastPhase == PhaseRetraining && a.Phase == PhaseInference && e.lastModel == a.Model {
			m.cross[CrossTaskParam] = append(m.cross[CrossTaskParam], gapMs)
		}
		if e.lastJob != a.JobID {
			m.cross[CrossJobParam] = append(m.cross[CrossJobParam], gapMs)
		}
	case KindIntermediate:
		if e.lastModel != a.Model {
			m.cross[CrossTaskIntermediate] = append(m.cross[CrossTaskIntermediate], gapMs)
		}
	}
}

// makeRoom evicts resident contents (outside the working set) until
// bytes fit, charging device-to-host time. Victims are chosen by the
// policy, highest score first; within one round, the lowest-scoring
// victims are placed in PIN memory while it has room (§3.4.2). The
// second return value is false when even evicting every candidate
// cannot make the bytes fit (nothing is evicted in that case — the
// caller streams instead).
//
// Victims are the prefix of the candidates sorted by evictionCmp, but
// no sort runs: the scoring pass tracks the first victim, and only when
// it alone does not make room are the rest popped off a max-heap. A
// call takes ~2 victims out of 100+ candidates under /M1 profiling.
func (m *Manager) makeRoom(now simtime.Instant, bytes int64) (simtime.Duration, bool) {
	if m.gpuUsed+bytes <= m.cfg.GPUBytes {
		return 0, true
	}
	// Per-type reuse means are constant within one makeRoom call (no
	// reuse observation lands mid-eviction); resolve each of the four
	// classes at most once instead of per candidate.
	var (
		reuseMs   [2][2]float64
		reuseSeen [2][2]bool
	)
	candidates := m.scratch[:0]
	freeable := int64(0)
	best := -1
	for _, e := range m.residents {
		if e.stamp == m.stampGen {
			continue
		}
		k, p := e.content.ID.Kind, e.lastPhase
		if !reuseSeen[k][p] {
			reuseMs[k][p] = m.TypeReuseMeanMs(ReuseClass{Kind: k, Phase: p})
			reuseSeen[k][p] = true
		}
		c := scoredEntry{e: e, score: m.cfg.Policy.Score(e, now, reuseMs[k][p])}
		if best < 0 || evictionCmp(c, candidates[best]) < 0 {
			best = len(candidates)
		}
		candidates = append(candidates, c)
		freeable += e.content.Bytes
	}
	m.scratch = candidates // keep the grown buffer for the next call
	if m.gpuUsed-freeable+bytes > m.cfg.GPUBytes {
		return 0, false
	}
	// Victims collect at the tail of candidates, first victim last:
	// candidates[:n] is the unselected rest, candidates[n:] the
	// victims in ascending eviction priority.
	n := len(candidates) - 1
	candidates[best], candidates[n] = candidates[n], candidates[best]
	freed := candidates[n].e.content.Bytes
	if m.gpuUsed-freed+bytes > m.cfg.GPUBytes {
		heapifyEviction(candidates[:n])
		for m.gpuUsed-freed+bytes > m.cfg.GPUBytes {
			n--
			candidates[0], candidates[n] = candidates[n], candidates[0]
			siftDownEviction(candidates[:n], 0)
			freed += candidates[n].e.content.Bytes
		}
	}
	victims := candidates[n:]
	if m.cfg.Audit {
		m.auditSelection(candidates, victims)
	}
	// Lower-scoring victims (reused sooner / tighter SLO) go to PIN.
	// Victims are in ascending eviction priority, so walk them forwards.
	var comm simtime.Duration
	for _, c := range victims {
		v := c.e
		t := bytesTime(v.content.Bytes, m.cfg.D2HBps)
		comm += t
		m.stats.D2HTime += t
		m.stats.D2HBytes += v.content.Bytes
		m.stats.Evictions++
		pinned := m.pinUsed+v.content.Bytes <= m.cfg.PinBytes
		if pinned {
			v.loc = locPinned
			m.pinUsed += v.content.Bytes
			m.stats.PinPlaced++
		} else {
			v.loc = locPageable
		}
		m.gpuUsed -= v.content.Bytes
		m.residentRemove(v)
		m.cfg.Trace.Evict(now, v.content.ID.App, v.content.ID.Model,
			int(v.content.ID.Layer), int(v.content.ID.Kind),
			v.content.Bytes, c.score, pinned)
	}
	return comm, true
}

// evictionCmp is the eviction order: negative when a is evicted before
// b. Highest score goes first; seq breaks ties. Because seq is unique,
// (score desc, seq asc) is a strict total order, so the victims of a
// call do not depend on the order candidates were gathered in. The
// heap selection and the audit's reference sort both use it.
func evictionCmp(a, b scoredEntry) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.e.seq < b.e.seq:
		return -1
	case a.e.seq > b.e.seq:
		return 1
	default:
		return 0
	}
}

// heapifyEviction arranges h as a binary heap whose root is the entry
// evicted first under evictionCmp.
func heapifyEviction(h []scoredEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownEviction(h, i)
	}
}

// siftDownEviction restores the heap property below index i.
func siftDownEviction(h []scoredEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && evictionCmp(h[r], h[c]) < 0 {
			c = r
		}
		if evictionCmp(h[i], h[c]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Release drops a content entirely (GPU, PIN, or pageable), freeing its
// space without any transfer. AdaInf uses this for a completed job's
// intermediate outputs, which are never reused (Observation 9).
func (m *Manager) Release(id ContentID) bool {
	e, ok := m.entries[id]
	if !ok {
		return false
	}
	switch e.loc {
	case locGPU:
		m.gpuUsed -= e.content.Bytes
		m.residentRemove(e)
	case locPinned:
		m.pinUsed -= e.content.Bytes
	}
	delete(m.entries, id)
	return true
}

// FlushAll drops every resident content at once — GPU, pinned, and
// pageable — and returns how many entries and how many bytes were
// lost. It models a lane crash: device memory on a failed GPU is gone,
// so everything the manager tracked must be treated as cold. Transfer
// statistics and reuse-time accumulators survive (they describe the
// past, which the crash cannot unhappen); only residency is cleared.
// After a flush the manager is immediately reusable, e.g. for the lane
// the app fails over to.
func (m *Manager) FlushAll() (entries int, bytes int64) {
	for _, e := range m.entries {
		bytes += e.content.Bytes
	}
	entries = m.ReleaseMatching(func(ContentID) bool { return true })
	return entries, bytes
}

// ReleaseMatching drops every content whose ID satisfies pred and
// returns how many were dropped.
func (m *Manager) ReleaseMatching(pred func(ContentID) bool) int {
	n := 0
	for id := range m.entries {
		if pred(id) {
			m.Release(id) // deleting the current key mid-range is safe
			n++
		}
	}
	return n
}

func bytesTime(bytes int64, bps float64) simtime.Duration {
	return simtime.Duration(float64(bytes) / bps * float64(time.Second))
}

// StateDigest returns a deterministic FNV-1a digest of the manager's
// observable state: occupancy, transfer statistics, per-entry placement
// and access history, and the reuse-time accumulators that drive the
// priority policy. Two managers that produce the same digest behave
// identically on any future access sequence, which is what lets cached
// session outcomes and cached profiles stand in for re-execution.
func (m *Manager) StateDigest() uint64 {
	h := fnv.New64a()
	hashU64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	hashF64 := func(v float64) { hashU64(math.Float64bits(v)) }
	hashStr := func(s string) {
		hashU64(uint64(len(s)))
		h.Write([]byte(s))
	}

	hashU64(uint64(m.cfg.GPUBytes))
	hashU64(uint64(m.cfg.PinBytes))
	hashU64(uint64(m.gpuUsed))
	hashU64(uint64(m.pinUsed))
	hashU64(uint64(m.stats.H2DBytes))
	hashU64(uint64(m.stats.D2HBytes))
	hashU64(uint64(m.stats.H2DTime))
	hashU64(uint64(m.stats.D2HTime))
	hashU64(m.stats.Hits)
	hashU64(m.stats.Misses)
	hashU64(m.stats.Evictions)
	hashU64(uint64(m.stats.StreamedBytes))
	hashU64(uint64(m.stats.StreamedTime))
	// Fault state is hashed only when present, so fault-free managers
	// keep the digests recorded before the failure hook existed.
	if m.stats.AllocFaults != 0 {
		hashU64(m.stats.AllocFaults)
	}

	// Entries in creation order (seq is unique and deterministic), so
	// the digest does not depend on map iteration order.
	ordered := make([]*entry, 0, len(m.entries))
	for _, e := range m.entries {
		ordered = append(ordered, e)
	}
	slices.SortFunc(ordered, func(a, b *entry) int {
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	for _, e := range ordered {
		hashU64(e.seq)
		hashStr(e.content.ID.App)
		hashStr(e.content.ID.Model)
		hashU64(uint64(e.content.ID.Layer))
		hashU64(uint64(e.content.ID.Kind))
		hashU64(e.content.ID.Seq)
		hashU64(uint64(e.loc))
		hashU64(uint64(e.content.Bytes))
		hashF64(e.content.SLOms)
		hashU64(uint64(e.lastAccess))
		hashU64(uint64(e.lastPhase))
		hashU64(e.lastJob)
		hashStr(e.lastModel)
		if e.faulted {
			hashU64(1)
		}
	}

	// Reuse accumulators by fixed class enumeration.
	for _, k := range []Kind{KindParam, KindIntermediate} {
		for _, p := range []Phase{PhaseInference, PhaseRetraining} {
			c := ReuseClass{Kind: k, Phase: p}
			hashF64(m.typeSum[c])
			hashU64(uint64(m.typeN[c]))
			hashU64(uint64(len(m.reuse[c])))
		}
	}
	return h.Sum64()
}
