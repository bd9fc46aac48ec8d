package gpumem

import (
	"math"
	"strings"
	"testing"
	"time"

	"adainf/internal/simtime"
)

const mb = int64(1 << 20)

func ms(x int) simtime.Instant {
	return simtime.Instant(time.Duration(x) * time.Millisecond)
}

func paramContent(app, model string, layer int, bytes int64) Content {
	return Content{
		ID:    ContentID{App: app, Model: model, Layer: layer, Kind: KindParam},
		Bytes: bytes,
		SLOms: 400,
	}
}

func intermediateContent(app, model string, layer int, seq uint64, bytes int64) Content {
	return Content{
		ID:            ContentID{App: app, Model: model, Layer: layer, Kind: KindIntermediate, Seq: seq},
		Bytes:         bytes,
		SLOms:         400,
		ProducedOnGPU: true,
	}
}

func TestNewManagerValidation(t *testing.T) {
	for _, cfg := range []Config{
		{GPUBytes: 0},
		{GPUBytes: 10, PinBytes: -1},
		{GPUBytes: 10, Policy: PriorityPolicy{Alpha: math.NaN()}},
		{GPUBytes: 10, Policy: PriorityPolicy{Alpha: 1.5}},
		{GPUBytes: 10, Policy: PriorityPolicy{Alpha: -0.1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for config %+v", cfg)
				}
			}()
			NewManager(cfg)
		}()
		// Reset rejects the same configs and leaves the manager as it was.
		m := NewManager(Config{GPUBytes: 10 * mb})
		if _, err := m.Acquire(ms(0), []Access{{Content: paramContent("a", "m", 0, mb), Phase: PhaseInference}}); err != nil {
			t.Fatal(err)
		}
		before := m.StateDigest()
		if err := m.Reset(cfg); err == nil {
			t.Errorf("Reset accepted config %+v", cfg)
		}
		if m.StateDigest() != before || m.Capacity() != 10*mb {
			t.Errorf("rejected Reset(%+v) changed the manager", cfg)
		}
	}
	for _, alpha := range []float64{0, 0.4, 1} {
		if err := (Config{GPUBytes: 10, Policy: PriorityPolicy{Alpha: alpha}}).Validate(); err != nil {
			t.Errorf("alpha %g rejected: %v", alpha, err)
		}
	}
}

func TestColdLoadChargesTransferForCPUBornContent(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	d, err := m.Acquire(ms(0), []Access{{Content: paramContent("app", "m", 0, 12*mb), Phase: PhaseInference, Model: "m", JobID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("cold parameter load charged no transfer time")
	}
	st := m.Stats()
	if st.H2DBytes != 12*mb || st.ColdLoads != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !m.Resident(ContentID{App: "app", Model: "m", Layer: 0, Kind: KindParam}) {
		t.Fatal("content not resident after acquire")
	}
}

func TestGPUBornContentIsFreeOnFirstTouch(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	d, err := m.Acquire(ms(0), []Access{{Content: intermediateContent("app", "m", 0, 1, 5*mb), Phase: PhaseInference, Model: "m", JobID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("GPU-born content charged %v transfer", d)
	}
	if m.Stats().H2DBytes != 0 {
		t.Fatalf("H2D bytes = %d", m.Stats().H2DBytes)
	}
}

func TestHitIsFree(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	acc := Access{Content: paramContent("a", "m", 0, mb), Phase: PhaseInference, Model: "m", JobID: 1}
	if _, err := m.Acquire(ms(0), []Access{acc}); err != nil {
		t.Fatal(err)
	}
	d, err := m.Acquire(ms(5), []Access{acc})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("hit charged %v", d)
	}
	if m.Stats().Hits != 1 {
		t.Fatalf("hits = %d", m.Stats().Hits)
	}
}

func TestOversizedWorkingSetStreams(t *testing.T) {
	m := NewManager(Config{GPUBytes: 10 * mb})
	accs := []Access{
		{Content: paramContent("a", "m", 0, 6*mb), Phase: PhaseInference, Model: "m"},
		{Content: paramContent("a", "m", 1, 6*mb), Phase: PhaseInference, Model: "m"},
	}
	d1, err := m.Acquire(ms(0), accs)
	if err != nil {
		t.Fatal(err)
	}
	if d1 <= 0 {
		t.Fatal("oversized working set charged nothing")
	}
	st := m.Stats()
	if st.StreamedBytes != 6*mb {
		t.Fatalf("StreamedBytes = %d, want one streamed 6 MB content", st.StreamedBytes)
	}
	// Streaming repeats on every touch — the out-of-core regime.
	d2, err := m.Acquire(ms(10), accs)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= 0 {
		t.Fatal("repeat oversized acquire was free")
	}
	if got := m.Stats().StreamedBytes; got <= st.StreamedBytes {
		t.Fatalf("streaming did not repeat: %d → %d", st.StreamedBytes, got)
	}
	// Reuse gaps are still recorded for streamed contents.
	if m.ReuseCDF(ReuseClass{Kind: KindParam, Phase: PhaseInference}).N() == 0 {
		t.Fatal("streamed accesses recorded no reuse samples")
	}
}

func TestInvalidContentSizeFails(t *testing.T) {
	m := NewManager(Config{GPUBytes: 10 * mb})
	_, err := m.Acquire(ms(0), []Access{{Content: Content{ID: ContentID{App: "a"}, Bytes: 0}}})
	if err == nil {
		t.Fatal("zero-byte content accepted")
	}
	// A non-finite SLO or an unknown kind or phase has no eviction
	// bucket; the call fails before touching any content.
	for _, a := range []Access{
		{Content: Content{ID: ContentID{App: "a"}, Bytes: mb, SLOms: math.NaN()}},
		{Content: Content{ID: ContentID{App: "a"}, Bytes: mb, SLOms: math.Inf(1)}},
		{Content: Content{ID: ContentID{App: "a", Kind: 2}, Bytes: mb}},
		{Content: Content{ID: ContentID{App: "a"}, Bytes: mb}, Phase: 2},
	} {
		ok := Access{Content: paramContent("a", "m", 0, mb), Phase: PhaseInference}
		if _, err := m.Acquire(ms(0), []Access{ok, a}); err == nil {
			t.Errorf("access %+v accepted", a)
		}
	}
	if m.Stats() != (Stats{}) || len(m.entries) != 0 {
		t.Fatalf("rejected calls touched the manager: %+v", m.Stats())
	}
}

func TestSeedTypeReuseRejectsBadInput(t *testing.T) {
	m := NewManager(Config{GPUBytes: mb})
	class := ReuseClass{Kind: KindParam, Phase: PhaseInference}
	for _, mean := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.SeedTypeReuse(class, mean, 1); err == nil {
			t.Errorf("mean %g accepted", mean)
		}
	}
	if err := m.SeedTypeReuse(ReuseClass{Kind: 2}, 1, 1); err == nil {
		t.Error("unknown class accepted")
	}
	if got := m.TypeReuseMeanMs(class); got != -1 {
		t.Fatalf("rejected seeds moved the mean to %g", got)
	}
}

func TestEvictionMakesRoomAndChargesD2H(t *testing.T) {
	m := NewManager(Config{GPUBytes: 10 * mb})
	a := Access{Content: paramContent("a", "m", 0, 6*mb), Phase: PhaseInference, Model: "m", JobID: 1}
	b := Access{Content: paramContent("a", "m", 1, 6*mb), Phase: PhaseInference, Model: "m", JobID: 1}
	if _, err := m.Acquire(ms(0), []Access{a}); err != nil {
		t.Fatal(err)
	}
	d, err := m.Acquire(ms(10), []Access{b})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("eviction+load charged nothing")
	}
	st := m.Stats()
	if st.Evictions != 1 || st.D2HBytes != 6*mb {
		t.Fatalf("stats = %+v", st)
	}
	if m.Resident(a.Content.ID) {
		t.Fatal("victim still resident")
	}
	if m.GPUUsed() != 6*mb {
		t.Fatalf("GPUUsed = %d", m.GPUUsed())
	}
}

func TestRefetchFromPinIsFasterThanPageable(t *testing.T) {
	run := func(pin int64) simtime.Duration {
		m := NewManager(Config{GPUBytes: 10 * mb, PinBytes: pin})
		a := Access{Content: paramContent("a", "m", 0, 6*mb), Phase: PhaseInference, Model: "m", JobID: 1}
		b := Access{Content: paramContent("a", "m", 1, 6*mb), Phase: PhaseInference, Model: "m", JobID: 1}
		if _, err := m.Acquire(ms(0), []Access{a}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Acquire(ms(10), []Access{b}); err != nil { // evicts a
			t.Fatal(err)
		}
		before := m.Stats().H2DTime
		if _, err := m.Acquire(ms(20), []Access{a}); err != nil { // evicts b, refetches a
			t.Fatal(err)
		}
		return m.Stats().H2DTime - before
	}
	withPin := run(32 * mb)
	withoutPin := run(0)
	if withPin >= withoutPin {
		t.Fatalf("PIN refetch %v not faster than pageable %v", withPin, withoutPin)
	}
}

func TestPinCapacityRespected(t *testing.T) {
	m := NewManager(Config{GPUBytes: 10 * mb, PinBytes: 4 * mb})
	a := Access{Content: paramContent("a", "m", 0, 6*mb), Phase: PhaseInference, Model: "m"}
	b := Access{Content: paramContent("a", "m", 1, 6*mb), Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(0), []Access{a})
	m.Acquire(ms(10), []Access{b}) // evicts a: 6MB > 4MB pin → pageable
	if m.PinUsed() != 0 {
		t.Fatalf("PinUsed = %d, want 0", m.PinUsed())
	}
	if m.Stats().PinPlaced != 0 {
		t.Fatalf("PinPlaced = %d", m.Stats().PinPlaced)
	}
}

func TestLRUPolicyEvictsOldest(t *testing.T) {
	m := NewManager(Config{GPUBytes: 10 * mb, Policy: LRUPolicy{}})
	old := Access{Content: paramContent("a", "m", 0, 4*mb), Phase: PhaseInference, Model: "m"}
	fresh := Access{Content: paramContent("a", "m", 1, 4*mb), Phase: PhaseInference, Model: "m"}
	newer := Access{Content: paramContent("a", "m", 2, 4*mb), Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(0), []Access{old})
	m.Acquire(ms(10), []Access{fresh})
	m.Acquire(ms(20), []Access{newer}) // must evict `old`
	if m.Resident(old.Content.ID) {
		t.Fatal("LRU kept the oldest entry")
	}
	if !m.Resident(fresh.Content.ID) {
		t.Fatal("LRU evicted the fresher entry")
	}
}

func TestPriorityPolicyKeepsSoonReusedType(t *testing.T) {
	// Intermediate outputs in inference are reused within ~1 ms;
	// parameters in inference within ~68 ms (Fig. 12a). The priority
	// policy must evict the params and keep the intermediates, even if
	// the intermediates were touched less recently.
	m := NewManager(Config{GPUBytes: 10 * mb, Policy: PriorityPolicy{Alpha: 0.4}})
	m.SeedTypeReuse(ReuseClass{Kind: KindIntermediate, Phase: PhaseInference}, 1, 100)
	m.SeedTypeReuse(ReuseClass{Kind: KindParam, Phase: PhaseInference}, 68, 100)

	inter := Access{Content: intermediateContent("a", "m", 0, 1, 4*mb), Phase: PhaseInference, Model: "m"}
	param := Access{Content: paramContent("a", "m", 5, 4*mb), Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(0), []Access{inter})
	m.Acquire(ms(1), []Access{param}) // param is the more recent touch
	next := Access{Content: intermediateContent("a", "m", 1, 1, 4*mb), Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(2), []Access{next})
	if !m.Resident(inter.Content.ID) {
		t.Fatal("priority policy evicted the soon-reused intermediate")
	}
	if m.Resident(param.Content.ID) {
		t.Fatal("priority policy kept the rarely-reused param")
	}
}

func TestPriorityPolicySLOTieBreak(t *testing.T) {
	// Same data type: the content belonging to the looser-SLO app is
	// evicted first.
	m := NewManager(Config{GPUBytes: 10 * mb, Policy: PriorityPolicy{Alpha: 0.4}})
	m.SeedTypeReuse(ReuseClass{Kind: KindParam, Phase: PhaseInference}, 10, 100)
	tight := Access{Content: Content{ID: ContentID{App: "tight", Model: "m", Layer: 0, Kind: KindParam}, Bytes: 4 * mb, SLOms: 400}, Phase: PhaseInference, Model: "m"}
	loose := Access{Content: Content{ID: ContentID{App: "loose", Model: "m", Layer: 0, Kind: KindParam}, Bytes: 4 * mb, SLOms: 600}, Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(0), []Access{tight})
	m.Acquire(ms(1), []Access{loose})
	trigger := Access{Content: Content{ID: ContentID{App: "x", Model: "m", Layer: 1, Kind: KindParam}, Bytes: 4 * mb, SLOms: 400}, Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(2), []Access{trigger})
	if !m.Resident(tight.Content.ID) {
		t.Fatal("tight-SLO content evicted before loose-SLO content")
	}
	if m.Resident(loose.Content.ID) {
		t.Fatal("loose-SLO content survived")
	}
}

func TestReuseRecording(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	acc := Access{Content: paramContent("a", "m", 0, mb), Phase: PhaseInference, Model: "m", JobID: 1}
	m.Acquire(ms(0), []Access{acc})
	m.Acquire(ms(10), []Access{acc})
	m.Acquire(ms(25), []Access{acc})
	cdf := m.ReuseCDF(ReuseClass{Kind: KindParam, Phase: PhaseInference})
	if cdf.N() != 2 {
		t.Fatalf("reuse samples = %d, want 2", cdf.N())
	}
	if cdf.Min() != 10 || cdf.Max() != 15 {
		t.Fatalf("reuse samples = [%v, %v], want [10, 15]", cdf.Min(), cdf.Max())
	}
	if mean := m.TypeReuseMeanMs(ReuseClass{Kind: KindParam, Phase: PhaseInference}); mean != 12.5 {
		t.Fatalf("type mean = %v", mean)
	}
}

func TestCrossTaskParamRecording(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	c := paramContent("a", "vehicle", 0, mb)
	// Retraining touches the params, then inference of the same model.
	m.Acquire(ms(0), []Access{{Content: c, Phase: PhaseRetraining, Model: "vehicle", JobID: 1}})
	m.Acquire(ms(2), []Access{{Content: c, Phase: PhaseInference, Model: "vehicle", JobID: 1}})
	cdf := m.CrossCDF(CrossTaskParam)
	if cdf.N() != 1 || cdf.Min() != 2 {
		t.Fatalf("cross-task param samples: n=%d", cdf.N())
	}
}

func TestCrossTaskIntermediateRecording(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	// Detection's last-layer output consumed by vehicle recognition.
	out := intermediateContent("a", "detect", 23, 7, mb)
	m.Acquire(ms(0), []Access{{Content: out, Phase: PhaseInference, Model: "detect", JobID: 1}})
	m.Acquire(ms(1), []Access{{Content: out, Phase: PhaseInference, Model: "vehicle", JobID: 1}})
	if got := m.CrossCDF(CrossTaskIntermediate).N(); got != 1 {
		t.Fatalf("cross-task intermediate samples = %d", got)
	}
}

func TestCrossJobParamRecording(t *testing.T) {
	m := NewManager(Config{GPUBytes: 100 * mb})
	c := paramContent("a", "m", 0, mb)
	m.Acquire(ms(0), []Access{{Content: c, Phase: PhaseInference, Model: "m", JobID: 1}})
	m.Acquire(ms(70), []Access{{Content: c, Phase: PhaseInference, Model: "m", JobID: 2}})
	cdf := m.CrossCDF(CrossJobParam)
	if cdf.N() != 1 || cdf.Min() != 70 {
		t.Fatalf("cross-job samples: n=%d", cdf.N())
	}
}

func TestRelease(t *testing.T) {
	m := NewManager(Config{GPUBytes: 10 * mb})
	a := Access{Content: intermediateContent("a", "m", 0, 1, 4*mb), Phase: PhaseInference, Model: "m"}
	b := Access{Content: intermediateContent("a", "m", 1, 1, 4*mb), Phase: PhaseInference, Model: "m"}
	m.Acquire(ms(0), []Access{a, b})
	if !m.Release(a.Content.ID) {
		t.Fatal("Release returned false for resident content")
	}
	if m.GPUUsed() != 4*mb {
		t.Fatalf("GPUUsed = %d after release", m.GPUUsed())
	}
	if m.Release(a.Content.ID) {
		t.Fatal("double release returned true")
	}
	n := m.ReleaseMatching(func(id ContentID) bool { return id.Kind == KindIntermediate })
	if n != 1 {
		t.Fatalf("ReleaseMatching dropped %d, want 1", n)
	}
	if m.GPUUsed() != 0 {
		t.Fatalf("GPUUsed = %d after ReleaseMatching", m.GPUUsed())
	}
}

func TestStringers(t *testing.T) {
	id := ContentID{App: "a", Model: "m", Layer: 3, Kind: KindParam}
	if got := id.String(); !strings.Contains(got, "param") {
		t.Fatalf("ContentID.String = %q", got)
	}
	id2 := ContentID{App: "a", Model: "m", Layer: 3, Kind: KindIntermediate, Seq: 9}
	if got := id2.String(); !strings.Contains(got, "#9") {
		t.Fatalf("intermediate String = %q", got)
	}
	if KindParam.String() != "param" || KindIntermediate.String() != "intermediate" {
		t.Fatal("Kind.String broken")
	}
	if PhaseInference.String() != "inference" || PhaseRetraining.String() != "retraining" {
		t.Fatal("Phase.String broken")
	}
	if (ReuseClass{Kind: KindParam, Phase: PhaseInference}).String() != "param/inference" {
		t.Fatal("ReuseClass.String broken")
	}
	for _, ck := range []CrossKind{CrossTaskIntermediate, CrossTaskParam, CrossJobParam} {
		if ck.String() == "" {
			t.Fatal("CrossKind.String empty")
		}
	}
}

func TestTypeReuseMeanUnknown(t *testing.T) {
	m := NewManager(Config{GPUBytes: mb})
	if got := m.TypeReuseMeanMs(ReuseClass{Kind: KindParam, Phase: PhaseRetraining}); got != -1 {
		t.Fatalf("unknown type mean = %v, want -1", got)
	}
}

func TestCommTimeAggregates(t *testing.T) {
	var s Stats
	s.H2DTime = 3 * time.Millisecond
	s.D2HTime = 2 * time.Millisecond
	if s.CommTime() != 5*time.Millisecond {
		t.Fatal("CommTime broken")
	}
}
