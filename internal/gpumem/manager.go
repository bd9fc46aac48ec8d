package gpumem

import (
	"fmt"
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
}

func (c *Config) fillDefaults() {
	if c.Policy == nil {
		c.Policy = LRUPolicy{}
	}
}

// Validate reports an error for a config NewManager rejects: a
// non-positive GPU capacity, a negative PIN capacity, or a policy
// parameter out of range.
func (c Config) Validate() error {
	if c.GPUBytes <= 0 {
		return fmt.Errorf("gpumem: GPUBytes %d must be positive", c.GPUBytes)
	}
	if c.PinBytes < 0 {
		return fmt.Errorf("gpumem: PinBytes %d must not be negative", c.PinBytes)
	}
	if c.Policy != nil {
		return c.Policy.validate()
	}
	return nil
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
}

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

	// buckets is the eviction index over exactly the entries with
	// loc == locGPU (see index.go); byAge is each reuse class's
	// current bucket order.
	buckets []*bucket
	byAge   [2][2]bool
	// stampGen marks the current Acquire call; entries whose stamp
	// matches are in the working set and exempt from eviction. ws
	// lists them, so makeRoom can total their resident bytes.
	stampGen uint64
	ws       []*entry

	reuse [2][2][]float64
	cross [3][]float64
	// Running per-type reuse means feed the priority policy's R_c.
	typeSum [2][2]float64
	typeN   [2][2]int

	// Storage recycled across calls and across Reset: released
	// entries, emptied buckets, and makeRoom's buffers (victims,
	// set-aside working-set heads, the tie-run stack, and the audit's
	// candidates and reference sort).
	free         []*entry
	spareBuckets []*bucket
	victims      []scoredEntry
	aside        []*entry
	stack        []int
	scratch      []scoredEntry
	auditScratch []scoredEntry
	digestOrder  []*entry

	// auditErr holds the first eviction-order violation found under
	// Config.Audit (see CheckInvariants).
	auditErr error
}

type scoredEntry struct {
	e     *entry
	score float64
}

// NewManager returns a manager over the config. It panics on a config
// Config.Validate rejects.
func NewManager(cfg Config) *Manager {
	m := new(Manager)
	if err := m.Reset(cfg); err != nil {
		panic(err)
	}
	return m
}

// Reset returns the manager to the state NewManager(cfg) builds while
// keeping its storage, so one manager can serve many measurements. On
// an invalid config it returns Config.Validate's error and leaves the
// manager unchanged.
func (m *Manager) Reset(cfg Config) error {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if m.entries == nil {
		m.entries = make(map[ContentID]*entry)
	}
	for _, e := range m.entries {
		m.free = append(m.free, e)
	}
	clear(m.entries)
	for _, b := range m.buckets {
		clear(b.heap)
		b.heap, b.head = b.heap[:0], nil
		m.spareBuckets = append(m.spareBuckets, b)
	}
	m.buckets = m.buckets[:0]
	for k := range m.reuse {
		for p := range m.reuse[k] {
			m.reuse[k][p] = m.reuse[k][p][:0]
			m.byAge[k][p] = cfg.Policy.ageOrdered(-1)
		}
	}
	for c := range m.cross {
		m.cross[c] = m.cross[c][:0]
	}
	m.cfg = cfg
	m.gpuUsed, m.pinUsed, m.seq, m.stampGen = 0, 0, 0, 0
	m.stats = Stats{}
	m.typeSum, m.typeN = [2][2]float64{}, [2][2]int{}
	m.ws = m.ws[:0]
	m.auditErr = nil
	return nil
}

// Capacity returns the GPU memory capacity in bytes.
func (m *Manager) Capacity() int64 { return m.cfg.GPUBytes }

// GPUUsed returns the bytes currently resident in GPU memory.
func (m *Manager) GPUUsed() int64 { return m.gpuUsed }

// PinUsed returns the bytes currently held in PIN memory.
func (m *Manager) PinUsed() int64 { return m.pinUsed }

// Stats returns a snapshot of the communication statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Resident reports whether the content is currently in GPU memory.
func (m *Manager) Resident(id ContentID) bool {
	e, ok := m.entries[id]
	return ok && e.loc == locGPU
}

// TypeReuseMeanMs returns the manager's current mean reuse latency (ms)
// of the class, or -1 if no observation exists yet.
func (m *Manager) TypeReuseMeanMs(class ReuseClass) float64 {
	if !class.valid() || m.typeN[class.Kind][class.Phase] == 0 {
		return -1
	}
	return m.typeSum[class.Kind][class.Phase] / float64(m.typeN[class.Kind][class.Phase])
}

// ReuseCDF returns the empirical CDF (milliseconds) of reuse times
// observed for the class (Fig. 12a).
func (m *Manager) ReuseCDF(class ReuseClass) *mathx.CDF {
	if !class.valid() {
		return mathx.NewCDF(nil)
	}
	return mathx.NewCDF(m.reuse[class.Kind][class.Phase])
}

// CrossCDF returns the empirical CDF (milliseconds) of cross-task or
// cross-job reuse times (Figs. 12b, 13).
func (m *Manager) CrossCDF(kind CrossKind) *mathx.CDF {
	if int(kind) >= len(m.cross) {
		return mathx.NewCDF(nil)
	}
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
	for _, a := range accs {
		if a.Content.Bytes <= 0 {
			return 0, fmt.Errorf("gpumem: content %v has size %d", a.Content.ID, a.Content.Bytes)
		}
		if math.IsNaN(a.Content.SLOms) || math.IsInf(a.Content.SLOms, 0) {
			return 0, fmt.Errorf("gpumem: content %v has SLO %g ms", a.Content.ID, a.Content.SLOms)
		}
		if !(ReuseClass{Kind: a.Content.ID.Kind, Phase: a.Phase}).valid() {
			return 0, fmt.Errorf("gpumem: content %v accessed as %v/%v", a.Content.ID, a.Content.ID.Kind, a.Phase)
		}
	}
	// Stamp the working set instead of building a per-call lookup map.
	// Entries created mid-call are stamped at creation (acquireOne).
	m.stampGen++
	m.ws = m.ws[:0]
	for _, a := range accs {
		if e, ok := m.entries[a.Content.ID]; ok && e.stamp != m.stampGen {
			e.stamp = m.stampGen
			m.ws = append(m.ws, e)
		}
	}
	var comm simtime.Duration
	for i := range accs {
		comm += m.acquireOne(now, &accs[i])
	}
	return comm, nil
}

// newEntry returns a fresh non-resident entry for the content, reusing
// a released one when there is any.
func (m *Manager) newEntry(c Content) *entry {
	var e *entry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		e = new(entry)
	}
	*e = entry{content: c, loc: locPageable, seq: m.seq, hidx: -1, stamp: m.stampGen}
	m.seq++
	m.entries[c.ID] = e
	m.ws = append(m.ws, e)
	return e
}

func (m *Manager) acquireOne(now simtime.Instant, a *Access) simtime.Duration {
	e, ok := m.entries[a.Content.ID]
	if !ok {
		e = m.newEntry(a.Content)
	} else if e.content.Bytes != a.Content.Bytes {
		// The content was re-materialized at a different size (e.g. an
		// intermediate re-produced for a different batch). Retire the
		// old allocation wherever it lives and reload at the new size.
		switch e.loc {
		case locGPU:
			m.gpuUsed -= e.content.Bytes
			e.bkt.remove(e.hidx)
		case locPinned:
			m.pinUsed -= e.content.Bytes
		}
		e.loc = locPageable
		e.content.Bytes = a.Content.Bytes
	}

	var comm simtime.Duration
	if e.loc == locGPU {
		m.stats.Hits++
	} else {
		m.stats.Misses++
		d, fits := m.makeRoom(now, a.Content.Bytes)
		comm += d
		if !fits {
			// Out-of-core: stream the content through GPU memory for
			// this access only. Born-on-GPU contents stream out, CPU
			// contents stream in; either way the bus is crossed once.
			t := bytesTime(a.Content.Bytes, DefaultH2DPageableBps)
			comm += t
			m.stats.StreamedTime += t
			m.stats.StreamedBytes += a.Content.Bytes
			e.everLoaded = true
			m.recordReuse(now, e, a)
			m.touch(now, e, a)
			return comm
		}
		// Charge the host-to-device transfer. Contents produced by GPU
		// computation are born resident on first touch.
		switch {
		case !e.everLoaded && a.Content.ProducedOnGPU:
			m.stats.ColdLoads++
		case e.loc == locPinned:
			t := bytesTime(a.Content.Bytes, DefaultH2DPinnedBps)
			comm += t
			m.stats.H2DTime += t
			m.stats.H2DBytes += a.Content.Bytes
			m.stats.PinRefills++
			m.pinUsed -= a.Content.Bytes
		default: // pageable, or cold load of CPU-born content
			t := bytesTime(a.Content.Bytes, DefaultH2DPageableBps)
			comm += t
			m.stats.H2DTime += t
			m.stats.H2DBytes += a.Content.Bytes
			if !e.everLoaded {
				m.stats.ColdLoads++
			}
		}
		e.loc = locGPU
		m.gpuUsed += a.Content.Bytes
	}
	e.everLoaded = true
	m.recordReuse(now, e, a)
	m.touch(now, e, a)
	return comm
}

// touch records the access on the entry and, for a resident entry,
// puts it back in index order: an entry whose bucket key changed moves
// bucket, one in an age-ordered bucket moves within it, and one in a
// seq-ordered bucket stays put.
func (m *Manager) touch(now simtime.Instant, e *entry, a *Access) {
	if e.hidx >= 0 && (e.lastPhase != a.Phase || e.content.SLOms != a.Content.SLOms) {
		e.bkt.remove(e.hidx)
	}
	e.lastAccess = now
	e.lastPhase = a.Phase
	e.lastModel = a.Model
	e.lastJob = a.JobID
	e.hasAccess = true
	// Refresh mutable attributes (e.g. SLO changes across jobs).
	e.content.SLOms = a.Content.SLOms
	switch {
	case e.loc != locGPU:
	case e.hidx < 0:
		m.index(e)
	case e.bkt.byAge:
		e.bkt.fix(e.hidx)
	}
}

// recordReuse classifies and stores the reuse gap since the entry's
// previous access.
func (m *Manager) recordReuse(now simtime.Instant, e *entry, a *Access) {
	if !e.hasAccess {
		return
	}
	gapMs := now.Sub(e.lastAccess).Seconds() * 1e3
	if gapMs < 0 {
		return
	}
	k, p := e.content.ID.Kind, a.Phase
	m.reuse[k][p] = append(m.reuse[k][p], gapMs)
	m.typeSum[k][p] += gapMs
	m.typeN[k][p]++
	m.refreshClass(k, p)

	switch k {
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
// policy, highest score first with seq breaking ties (evictionCmp);
// within one call, the lowest-scoring victims are placed in PIN memory
// while it has room (§3.4.2). The second return value is false when
// even evicting every candidate cannot make the bytes fit (nothing is
// evicted in that case — the caller streams instead).
//
// Each victim is the best of the eviction index's bucket heads (see
// index.go), so a call scores one entry per bucket plus the entries
// it takes, never the whole resident set.
func (m *Manager) makeRoom(now simtime.Instant, bytes int64) (simtime.Duration, bool) {
	if m.gpuUsed+bytes <= m.cfg.GPUBytes {
		return 0, true
	}
	var held int64 // the working set's resident bytes, exempt from eviction
	for _, e := range m.ws {
		if e.loc == locGPU {
			held += e.content.Bytes
		}
	}
	if held+bytes > m.cfg.GPUBytes {
		return 0, false
	}
	var candidates []scoredEntry
	if m.cfg.Audit {
		candidates = m.auditCandidates(now)
	}
	for _, b := range m.buckets {
		m.resolveHead(b, now)
	}
	victims := m.victims[:0]
	freed := int64(0)
	for m.gpuUsed-freed+bytes > m.cfg.GPUBytes {
		var best *bucket
		for _, b := range m.buckets {
			if b.head != nil && (best == nil ||
				evictionCmp(scoredEntry{b.head, b.score}, scoredEntry{best.head, best.score}) < 0) {
				best = b
			}
		}
		v := best.head
		victims = append(victims, scoredEntry{e: v, score: best.score})
		freed += v.content.Bytes
		best.remove(v.hidx)
		m.resolveHead(best, now)
	}
	for _, e := range m.aside {
		m.index(e)
	}
	m.aside = m.aside[:0]
	m.victims = victims
	if m.cfg.Audit {
		m.auditSelection(candidates, victims)
	}
	// Lower-scoring victims (reused sooner / tighter SLO) go to PIN:
	// walk the victims last-chosen first.
	var comm simtime.Duration
	for i := len(victims) - 1; i >= 0; i-- {
		c := victims[i]
		v := c.e
		t := bytesTime(v.content.Bytes, DefaultD2HBps)
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
// index selection and the audit's reference sort both use it.
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

// Release drops a content entirely (GPU, PIN, or pageable), freeing its
// space without any transfer.
func (m *Manager) Release(id ContentID) bool {
	e, ok := m.entries[id]
	if ok {
		m.drop(e)
	}
	return ok
}

// ReleaseApp applies the end-of-job policy (§3.4) to the app's
// contents: its intermediate outputs, which are never reused
// (Observation 9), are dropped, and so are its parameters unless
// keepParams. It returns how many contents were dropped.
func (m *Manager) ReleaseApp(app string, keepParams bool) int {
	n := 0
	for id, e := range m.entries {
		if id.App == app && (id.Kind == KindIntermediate || !keepParams) {
			m.drop(e) // deleting the current key mid-range is safe
			n++
		}
	}
	return n
}

// drop frees a content's space wherever it lives and recycles its entry.
func (m *Manager) drop(e *entry) {
	switch e.loc {
	case locGPU:
		m.gpuUsed -= e.content.Bytes
		e.bkt.remove(e.hidx)
	case locPinned:
		m.pinUsed -= e.content.Bytes
	}
	delete(m.entries, e.content.ID)
	m.free = append(m.free, e)
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
	h := fnv64a(14695981039346656037)
	h.u64(uint64(m.cfg.GPUBytes))
	h.u64(uint64(m.cfg.PinBytes))
	h.u64(uint64(m.gpuUsed))
	h.u64(uint64(m.pinUsed))
	h.u64(uint64(m.stats.H2DBytes))
	h.u64(uint64(m.stats.D2HBytes))
	h.u64(uint64(m.stats.H2DTime))
	h.u64(uint64(m.stats.D2HTime))
	h.u64(m.stats.Hits)
	h.u64(m.stats.Misses)
	h.u64(m.stats.Evictions)
	h.u64(uint64(m.stats.StreamedBytes))
	h.u64(uint64(m.stats.StreamedTime))

	// Entries in creation order (seq is unique and deterministic), so
	// the digest does not depend on map iteration order.
	ordered := m.digestOrder[:0]
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
		h.u64(e.seq)
		h.str(e.content.ID.App)
		h.str(e.content.ID.Model)
		h.u64(uint64(e.content.ID.Layer))
		h.u64(uint64(e.content.ID.Kind))
		h.u64(e.content.ID.Seq)
		h.u64(uint64(e.loc))
		h.u64(uint64(e.content.Bytes))
		h.u64(math.Float64bits(e.content.SLOms))
		h.u64(uint64(e.lastAccess))
		h.u64(uint64(e.lastPhase))
		h.u64(e.lastJob)
		h.str(e.lastModel)
	}
	clear(ordered)
	m.digestOrder = ordered[:0]

	// Reuse accumulators by fixed class enumeration.
	for _, k := range []Kind{KindParam, KindIntermediate} {
		for _, p := range []Phase{PhaseInference, PhaseRetraining} {
			h.u64(math.Float64bits(m.typeSum[k][p]))
			h.u64(uint64(m.typeN[k][p]))
			h.u64(uint64(len(m.reuse[k][p])))
		}
	}
	return uint64(h)
}

// fnv64a is an FNV-1a 64-bit hash (hash/fnv's New64a) that takes
// integers little-endian and strings length-prefixed without
// allocating.
type fnv64a uint64

func (h *fnv64a) byte(b byte) { *h = (*h ^ fnv64a(b)) * 1099511628211 }

func (h *fnv64a) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64a) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}
