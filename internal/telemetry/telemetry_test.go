package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"adainf/internal/simtime"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms uniformly: quantiles are known up to bucket width (~9%).
	for i := 1; i <= 1000; i++ {
		h.ObserveMs(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990}, {0.999, 999},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.10 {
			t.Errorf("q%g = %.1f, want %.1f ±10%%", tc.q, got, tc.want)
		}
	}
	s := h.Summary()
	if s.MaxMs != 1000 || s.Count != 1000 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.MeanMs-500.5) > 1e-9 {
		t.Errorf("mean = %g, want 500.5", s.MeanMs)
	}
	// Quantiles are monotone.
	if !(s.P50Ms <= s.P90Ms && s.P90Ms <= s.P99Ms && s.P99Ms <= s.P999Ms && s.P999Ms <= s.MaxMs) {
		t.Errorf("quantiles not monotone: %+v", s)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.ObserveMs(5) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should be empty")
	}
	if (nilH.Summary() != Summary{}) {
		t.Error("nil histogram summary not zero")
	}

	h := NewHistogram()
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.ObserveMs(-1)         // ignored
	h.ObserveMs(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Errorf("negative/NaN observations counted: %d", h.Count())
	}
	h.ObserveMs(0) // clamps into first bucket
	h.ObserveMs(1e12)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(1); got != 1e12 {
		t.Errorf("max quantile = %g", got)
	}
	// A single repeated value reports itself at every quantile.
	h2 := NewHistogram()
	for i := 0; i < 100; i++ {
		h2.ObserveMs(42)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h2.Quantile(q); math.Abs(got-42) > 42*0.1 {
			t.Errorf("constant histogram q%g = %g", q, got)
		}
	}
}

func TestHistogramVsExact(t *testing.T) {
	// Random latencies: histogram quantiles must track exact quantiles
	// within the bucket resolution.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	xs := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64()*1.5 + 2) // log-normal, ms
		xs = append(xs, v)
		h.ObserveMs(v)
	}
	exact := func(q float64) float64 {
		s := append([]float64(nil), xs...)
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[j] < s[i] {
					s[i], s[j] = s[j], s[i]
				}
			}
		}
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		return s[idx]
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.Quantile(q), exact(q)
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("q%g = %g, exact %g (rel err %.3f)", q, got, want, rel)
		}
	}
}

// emitAll drives every event emitter once, as the serving loop would.
func emitAll(c *Collector) {
	ts := simtime.Instant(3 * time.Second)
	c.Run("AdaInf", 4, 500*time.Second, 8)
	c.Period(ts, 0, 0, 9999)
	c.Impact(ts, 0, "video-surveillance", "vehicle-type", 0.35, true)
	c.PeriodPlan(ts, 0, 2, 4200*time.Millisecond, 1<<30)
	c.SessionPlan(ts, 600, 0.5, 100*time.Microsecond, 8)
	c.JobPlan(ts, 600, "video-surveillance", 0.25, 16, 3*time.Millisecond, time.Millisecond)
	c.Job(ts, 600, "video-surveillance", 17, 100*time.Microsecond,
		3*time.Millisecond, time.Millisecond, 5*time.Millisecond, true, false)
	c.RetrainApply(ts, "video-surveillance", "vehicle-type", 4000, 612, 0)
	c.RetrainDiscard(ts, "social-media", "sentiment", 1000)
	c.Evict(ts, "video-surveillance", "resnet50", 3, 0, 1<<20, 0.75, true)
	c.Cache("video-surveillance", true)
	c.Cache("social-media", false)
	c.CacheCorrupt("social-media")
	c.ProfileUnit("social-media", "sentiment", "full", 2*time.Millisecond)
	c.ProfileBuild("social-media", 7*time.Millisecond, 4, 13, false)
	c.FF(true)
	c.FF(false)
	c.PlanningObserve(120 * time.Microsecond)
	c.RetrainFault(ts, "video-surveillance", "vehicle-type", "retrain-fail", 1)
	c.RetrainAbandon(ts, "video-surveillance", "vehicle-type", 3, 4000)
	c.Degrade(ts, 600, "social-media")
	c.Burst(ts, 2, "video-surveillance", 140, 200, 3)
	c.DriftSpike(ts, 2, "video-surveillance", 0.5)
	c.Placement(ts, 2, "video-surveillance", 1, 200<<20, 0)
	c.GPUCrash(ts, 2, 1, 0b01)
	c.GPURecover(ts, 3, 1, 0b11)
	c.Replace(ts, 2, 0b01, 7, 1)
	c.Admit(ts, 2, 0, false, 0.97, 140)
	c.Shed(ts, 600, "social-media", 140)
	c.EnableGPUCounters(2)
	c.GPUBusy(0, 40*time.Millisecond, 0.5)
	c.GPUBusy(1, 10*time.Millisecond, 1)
	c.Counters(ts)
}

// TestHistogramOverflow is the regression test for silent top-bucket
// clamping: samples beyond the histogram's range must be counted and
// surfaced in Summary.Overflow (omitted from JSON when zero), instead
// of disappearing into the last bucket.
func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram()
	h.ObserveMs(5)
	if h.Overflow() != 0 {
		t.Fatalf("in-range observation counted as overflow")
	}
	s := h.Summary()
	if s.Overflow != 0 {
		t.Fatalf("Summary.Overflow = %d with no overflow", s.Overflow)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Overflow") {
		t.Fatalf("zero overflow serialized: %s", b)
	}

	const huge = 1e9 // ms — far beyond the ~4.3e6 ms top bucket
	h.ObserveMs(huge)
	h.ObserveMs(2 * huge)
	if h.Overflow() != 2 {
		t.Fatalf("Overflow = %d, want 2", h.Overflow())
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3 (overflow samples still count)", h.Count())
	}
	s = h.Summary()
	if s.Overflow != 2 {
		t.Fatalf("Summary.Overflow = %d, want 2", s.Overflow)
	}
	if s.MaxMs != 2*huge {
		t.Fatalf("MaxMs = %g, want %g (max stays exact)", s.MaxMs, 2*huge)
	}
	if s.P999Ms > s.MaxMs {
		t.Fatalf("P999Ms %g above MaxMs %g", s.P999Ms, s.MaxMs)
	}
	if b, err = json.Marshal(s); err != nil || !strings.Contains(string(b), `"Overflow":2`) {
		t.Fatalf("overflow not serialized: %s (%v)", b, err)
	}
}

func TestGPUBusyCounters(t *testing.T) {
	c := New(Options{Hist: true})
	c.GPUBusy(0, time.Second, 1) // before EnableGPUCounters: no-op
	if c.GPUBusyMs() != nil {
		t.Fatal("counters materialized before EnableGPUCounters")
	}
	c.EnableGPUCounters(2)
	c.GPUBusy(0, 40*time.Millisecond, 0.5)
	c.GPUBusy(1, 10*time.Millisecond, 1)
	c.GPUBusy(-1, time.Second, 1) // out of range: ignored
	c.GPUBusy(2, time.Second, 1)
	got := c.GPUBusyMs()
	if len(got) != 2 || got[0] != 20 || got[1] != 10 {
		t.Fatalf("GPUBusyMs = %v, want [20 10]", got)
	}

	// The counters event carries per-GPU fields only when enabled.
	var plain, multi bytes.Buffer
	p := New(Options{Trace: &plain})
	p.Counters(0)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "gpu0_busy_ms") {
		t.Fatalf("single-GPU counters event grew per-GPU fields: %s", plain.String())
	}
	m := New(Options{Trace: &multi})
	m.EnableGPUCounters(2)
	m.GPUBusy(1, 10*time.Millisecond, 1)
	m.Counters(0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(multi.String(), `"gpu0_busy_ms":0`) ||
		!strings.Contains(multi.String(), `"gpu1_busy_ms":10`) {
		t.Fatalf("multi-GPU counters event missing per-GPU fields: %s", multi.String())
	}
	if _, err := Validate(strings.NewReader(multi.String())); err != nil {
		t.Fatalf("multi-GPU counters event fails validation: %v", err)
	}
}

func TestTraceSchemaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := New(Options{Trace: &buf, Hist: true})
	emitAll(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	counts, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails validation: %v\ntrace:\n%s", err, buf.String())
	}
	for ev := range requiredFields {
		if counts[ev] == 0 {
			t.Errorf("emitAll produced no %q event", ev)
		}
	}
	// Every line must be parseable by a standard JSON decoder.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	if h, m := c.FFCounts(); h != 1 || m != 1 {
		t.Errorf("ff counts = %d/%d", h, m)
	}
	if h, m := c.CacheCounts(); h != 1 || m != 1 {
		t.Errorf("cache counts = %d/%d", h, m)
	}
	if c.Planning.Count() != 1 {
		t.Error("planning histogram did not observe")
	}
	if !c.HistEnabled() || c.Infer.Count() != 1 || c.Retrain.Count() != 1 || c.Queue.Count() != 1 {
		t.Error("histograms did not observe the job")
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"not json", "nope"},
		{"missing ts", `{"ev":"period","period":0,"first_session":0,"last_session":1}`},
		{"missing ev", `{"ts":0}`},
		{"unknown ev", `{"ts":0,"ev":"bogus"}`},
		{"missing field", `{"ts":0,"ev":"period","period":0}`},
		{"negative ts", `{"ts":-5,"ev":"counters","ff_hits":0,"ff_misses":0,"cache_hits":0,"cache_misses":0}`},
	} {
		if _, err := Validate(strings.NewReader(tc.line + "\n")); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func TestExportChrome(t *testing.T) {
	var buf bytes.Buffer
	c := New(Options{Trace: &buf})
	emitAll(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ExportChrome(bytes.NewReader(buf.Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event without numeric ts: %v", ev)
		}
	}
	if phases["X"] == 0 {
		t.Error("no job span events in export")
	}
	if phases["i"] == 0 {
		t.Error("no instant events in export")
	}
	if phases["C"] == 0 {
		t.Error("no counter events in export")
	}
}

func TestNewNoop(t *testing.T) {
	if New(Options{}) != nil {
		t.Error("New with nothing enabled should return the nil no-op")
	}
	var c *Collector
	emitAll(c) // every emitter must be nil-safe
	if c.HistEnabled() || c.Tracing() {
		t.Error("nil collector reports enabled")
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	c := New(Options{Trace: &buf})
	c.Cache("we\"ird\\app\nname", true)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		t.Fatalf("escaped line invalid: %v (%q)", err, buf.String())
	}
	if m["app"] != "we\"ird\\app\nname" {
		t.Errorf("round-trip = %q", m["app"])
	}
}
