// Profile disk cache: offline profiling is by far the most expensive
// part of a quick experiment run (it executes every structure of every
// model on the simulated GPU across the full batch × fraction grid),
// yet its output depends only on the profiler configuration and the
// application's models — not on the experiment seed or workload. The
// cache stores each built AppProfile content-addressed under a key
// covering everything that can change the measurements, so repeated
// cmd/repro, benchmark, and CI invocations skip BuildAppProfile
// entirely. Clearing the cache is always safe: delete the directory.
package profile

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"adainf/internal/app"
	"adainf/internal/dnn"
	"adainf/internal/gpumem"
	"adainf/internal/mathx"
	"adainf/internal/simtime"
)

// CacheVersion invalidates every cached profile when the profiler's
// measurement semantics change. Bump it whenever BuildAppProfile's
// output for an unchanged config can differ from a previous release.
const CacheVersion = 2

// CacheKey returns the canonical, human-readable identity of the
// profile BuildAppProfile(a, cfg) would produce. Two (app, config)
// pairs with equal keys build byte-identical profiles: the key covers
// the GPU spec, the measurement grids, the execution strategy, the
// eviction policy (including its parameters), the per-job memory share,
// the retraining measurement, the app's SLO, and every node's name and
// full architecture. It deliberately excludes the app name and accuracy
// thresholds, which do not influence profiling.
func CacheKey(a *app.App, cfg Config) string {
	cfg.fillDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "adainf-profile-cache v%d\n", CacheVersion)
	fmt.Fprintf(&b, "gpu: %+v\n", spec)
	fmt.Fprintf(&b, "batches: %v\n", cfg.BatchSizes)
	fmt.Fprintf(&b, "fractions: %v\n", cfg.Fractions)
	fmt.Fprintf(&b, "memshare: %v\n", DefaultMemShare)
	fmt.Fprintf(&b, "strategy: %+v\n", cfg.Strategy)
	pol := cfg.policy()
	fmt.Fprintf(&b, "policy: %s %+v\n", pol.Name(), pol)
	b.WriteString("pin: 0\n") // no partition is given PIN memory
	fmt.Fprintf(&b, "retrain: batch=%d samples=%d\n", retrainBatch, retrainSamples)
	fmt.Fprintf(&b, "slo: %v\n", a.SLO)
	for i := range a.Nodes {
		node := &a.Nodes[i]
		fmt.Fprintf(&b, "node %s model %s", node.Name, node.Model)
		if arch, ok := dnn.ByName(node.Model); ok {
			fmt.Fprintf(&b, " arch %+v", *arch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cachePath maps a key to its file under dir: an FNV-64a content
// address, so distinct configurations never collide on a filename (and
// the full key is verified after decode anyway).
func cachePath(dir, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("profile-%016x.gob", h.Sum64()))
}

// The on-disk representation shadows AppProfile with only exported,
// gob-encodable state: each node's flat table arrays, in table order.
// The axes are not stored — the key names the grid, and the config
// rebuilds them. dnn.Structure carries unexported fields, so
// structures are stored by exit depth and reconstructed through
// dnn.EarlyExitStructures on load. Gob encodes float64 by bit pattern,
// so a loaded profile is bit-identical to the built one.
type cachedProfile struct {
	Key       string
	MemDigest uint64
	Nodes     []cachedNode
	TypeReuse map[gpumem.ReuseClass]float64
}

type cachedNode struct {
	Name             string
	Exits            []int
	Laws             []mathx.PowerLaw
	PerBatch, Comm   []simtime.Duration
	RetrainPerSample []simtime.Duration
	RetrainLaw       mathx.PowerLaw
}

// StoreCached writes the profile to dir under its cache key,
// creating dir as needed. The write is atomic (temp file + rename), so
// concurrent processes never observe a torn cache entry.
func StoreCached(dir string, a *app.App, cfg Config, ap *AppProfile) error {
	key := CacheKey(a, cfg)
	c := cachedProfile{
		Key:       key,
		MemDigest: ap.MemDigest,
		TypeReuse: ap.TypeReuse,
	}
	for _, t := range ap.tables {
		cn := cachedNode{
			Name:             t.node,
			Laws:             t.laws,
			PerBatch:         t.perBatch,
			Comm:             t.comm,
			RetrainPerSample: t.retrain.PerSample,
			RetrainLaw:       t.retrain.Scaling,
		}
		for _, st := range t.structures {
			cn.Exits = append(cn.Exits, st.ExitAfter())
		}
		c.Nodes = append(c.Nodes, cn)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return fmt.Errorf("profile: cache encode: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := cachePath(dir, key)
	tmp, err := os.CreateTemp(dir, ".profile-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// CacheMaxBytes bounds the total size of a profile cache directory.
// Every successful store runs CleanCache(dir, CacheMaxBytes), so the
// cache stays a working set instead of growing without bound across
// configuration churn. Mutable for tests and unusual deployments.
var CacheMaxBytes int64 = 1 << 30

// CleanCache evicts cache entries from dir, oldest modification time
// first (ties broken by filename), until the entries' total size is at
// most maxBytes. Only `profile-*.gob` files are considered — temp
// files, subdirectories, and foreign files are left alone. maxBytes 0
// clears the cache. A missing dir is an empty cache. It returns how
// many entries were removed.
func CleanCache(dir string, maxBytes int64) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "profile-") || !strings.HasSuffix(name, ".gob") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent eviction
		}
		files = append(files, entry{name: name, size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	removed := 0
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(dir, f.name)); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		total -= f.size
		removed++
	}
	return removed, nil
}

// loadCached returns the cached profile for (a, cfg) from dir, or
// ok == false when no valid entry exists. Any corruption, key mismatch,
// model/structure drift or array whose length does not fit the grid is
// a miss — the caller rebuilds and overwrites. corrupt is true only
// when the file existed but gob could not decode it — in that case the
// file has already been removed (it can never become valid again).
// Structural mismatches (stale key, model drift, wrong shape) are plain
// misses: the rename on the next store overwrites them.
func loadCached(dir string, a *app.App, cfg Config) (ap *AppProfile, ok, corrupt bool) {
	key := CacheKey(a, cfg)
	path := cachePath(dir, key)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	var c cachedProfile
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&c); err != nil {
		_ = os.Remove(path)
		return nil, false, true
	}
	cfg.fillDefaults()
	batches, fracs, err := cfg.axes()
	if err != nil || c.Key != key || len(c.Nodes) != len(a.Nodes) {
		return nil, false, false
	}

	ap = &AppProfile{
		App:       a,
		tables:    make([]*Table, len(a.Nodes)),
		TypeReuse: c.TypeReuse,
		MemDigest: c.MemDigest,
	}
	if ap.TypeReuse == nil {
		ap.TypeReuse = make(map[gpumem.ReuseClass]float64)
	}
	for i := range a.Nodes {
		node := &a.Nodes[i]
		cn := &c.Nodes[i]
		arch, known := dnn.ByName(node.Model)
		if cn.Name != node.Name || !known {
			return nil, false, false
		}
		structures := dnn.EarlyExitStructures(arch, dnn.ExitStride)
		if !slices.EqualFunc(structures, cn.Exits, func(st dnn.Structure, exit int) bool { return st.ExitAfter() == exit }) {
			return nil, false, false
		}
		t := newTable(node.Name, structures, batches, fracs)
		if len(cn.Laws) != len(t.laws) || len(cn.PerBatch) != len(t.perBatch) ||
			len(cn.Comm) != len(t.comm) || len(cn.RetrainPerSample) != len(fracs) {
			return nil, false, false
		}
		t.laws, t.perBatch, t.comm = cn.Laws, cn.PerBatch, cn.Comm
		t.retrain = RetrainProfile{PerSample: cn.RetrainPerSample, Scaling: cn.RetrainLaw}
		ap.tables[i] = t
	}
	return ap, true, false
}

// BuildInfo describes how one cached build was satisfied.
type BuildInfo struct {
	// CacheHit reports whether a valid disk entry skipped the build.
	CacheHit bool
	// CorruptEvicted reports whether an undecodable cache file was
	// found (and deleted) during the lookup.
	CorruptEvicted bool
	// Workers is the work-unit worker count the build ran (or would
	// have run) with.
	Workers int
	// Units is the number of profiling work units the app decomposes
	// into.
	Units int
	// Wall is the wall-clock time of the whole operation, lookup and
	// store included.
	Wall time.Duration
}

// BuildAppProfileCached is BuildAppProfile behind the disk cache in
// dir: a valid cache entry is returned directly; otherwise the profile
// is built and stored. An empty dir disables caching. Store failures
// (e.g. a read-only results directory in CI) are non-fatal: the built
// profile is returned and the next run simply rebuilds.
func BuildAppProfileCached(a *app.App, cfg Config, dir string) (*AppProfile, error) {
	ap, _, err := BuildAppProfileCachedInfo(a, cfg, dir)
	return ap, err
}

// BuildAppProfileCachedInfo is BuildAppProfileCached with the build's
// outcome surfaced — cache hit, corrupt-entry eviction, worker count,
// and wall time. Every successful store also runs the cache's size GC
// (CleanCache with CacheMaxBytes). The telemetry sequence per app is
// fixed: cache-corrupt (if any) → cache hit/miss (only when caching) →
// per-unit events from the build → profile_build last.
func BuildAppProfileCachedInfo(a *app.App, cfg Config, dir string) (*AppProfile, BuildInfo, error) {
	info := BuildInfo{Workers: cfg.workerCount(), Units: UnitCount(a)}
	start := time.Now()
	if dir != "" {
		ap, ok, corrupt := loadCached(dir, a, cfg)
		if corrupt {
			info.CorruptEvicted = true
			cfg.Telemetry.CacheCorrupt(a.Name)
		}
		if ok {
			info.CacheHit = true
			info.Wall = time.Since(start)
			cfg.Telemetry.Cache(a.Name, true)
			cfg.Telemetry.ProfileBuild(a.Name, info.Wall, info.Workers, info.Units, true)
			return ap, info, nil
		}
		cfg.Telemetry.Cache(a.Name, false)
	}
	ap, err := BuildAppProfile(a, cfg)
	if err != nil {
		return nil, info, err
	}
	if dir != "" && StoreCached(dir, a, cfg, ap) == nil {
		_, _ = CleanCache(dir, CacheMaxBytes)
	}
	info.Wall = time.Since(start)
	cfg.Telemetry.ProfileBuild(a.Name, info.Wall, info.Workers, info.Units, false)
	return ap, info, nil
}
