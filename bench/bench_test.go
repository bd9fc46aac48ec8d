package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adainf/internal/audit"
	"adainf/internal/sched"
	"adainf/internal/serving"
	"adainf/internal/telemetry"
)

// TestWrapperTransparency runs one arm of every workload at a tiny
// horizon three ways: plain, wrapped in the timing recorder under a
// tracing collector, and audited. The benchmark's per-layer numbers
// are only meaningful if observing a run does not change it, so the
// three results, fast-forward hits and plan-memo counts must agree.
func TestWrapperTransparency(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// Three periods: lane crashes may start at the third.
			w.horizon, w.rate = 150*time.Second, 60
			a := &w.arms[len(w.arms)-1]
			fc, err := w.faultConfig(1)
			if err != nil {
				t.Fatal(err)
			}
			profs := profileSet{}
			profs[a.m.mem.name], err = serving.BuildProfilesWith(w.apps(), a.m.mem.strategy, a.m.mem.policy,
				serving.ProfileBuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := runArm(&w, a, 1, profs, fc, false, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sink := newEventSink()
			traced, tm, err := runArm(&w, a, 1, profs, fc, true, telemetry.New(telemetry.Options{Trace: sink, Hist: true}), nil)
			if err != nil {
				t.Fatal(err)
			}
			audited, _, err := runArm(&w, a, 1, profs, fc, false, nil, &audit.Report{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []armRun{traced, audited} {
				if r.digest != plain.digest {
					t.Errorf("result digest %016x, plain run %016x", r.digest, plain.digest)
				}
				if r.res.FastForwardHits != plain.res.FastForwardHits {
					t.Errorf("fast-forward hits %d, plain run %d", r.res.FastForwardHits, plain.res.FastForwardHits)
				}
				if r.res.PlanMemoHits != plain.res.PlanMemoHits || r.res.PlanMemoMisses != plain.res.PlanMemoMisses ||
					r.res.PlanMemoInvalidated != plain.res.PlanMemoInvalidated {
					t.Errorf("plan memo %d/%d/%d, plain run %d/%d/%d",
						r.res.PlanMemoHits, r.res.PlanMemoMisses, r.res.PlanMemoInvalidated,
						plain.res.PlanMemoHits, plain.res.PlanMemoMisses, plain.res.PlanMemoInvalidated)
				}
			}
			if audited.res.AuditChecks == 0 {
				t.Error("audited run made no checks")
			}
			if len(tm.periods) != 3 || len(tm.sessionNs) == 0 {
				t.Errorf("wrapper saw %d period starts and %d session plans", len(tm.periods), len(tm.sessionNs))
			}
			if sink.events == 0 || sink.byType[telemetry.EvRun] != 1 {
				t.Errorf("trace sink saw %d events, %d run headers", sink.events, sink.byType[telemetry.EvRun])
			}
		})
	}
}

// TestWrapperSteadyStateMarker checks that the wrapper is a
// sched.SteadyStatePlanner exactly when the method it wraps is, for
// every method of every workload: the marker gates fast-forward.
func TestWrapperSteadyStateMarker(t *testing.T) {
	for _, w := range workloads() {
		for _, a := range w.arms {
			inner := a.m.build()
			wrapped, _ := wrapMethod(inner)
			_, want := inner.(sched.SteadyStatePlanner)
			_, got := wrapped.(sched.SteadyStatePlanner)
			if got != want {
				t.Errorf("%s %s: wrapper steady-state %v, method %v", w.name, a.m.label, got, want)
			}
			if wrapped.Name() != inner.Name() {
				t.Errorf("%s: wrapper named %q, method %q", w.name, wrapped.Name(), inner.Name())
			}
		}
	}
}

// TestSpecMatchesWorkloads checks BENCHMARK.json against the program:
// the same workloads in the same order, and every bound in (0, 0.25].
func TestSpecMatchesWorkloads(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(sp.Workloads) != len(ws) {
		t.Fatalf("spec lists %d workloads, program has %d", len(sp.Workloads), len(ws))
	}
	for i, w := range ws {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, program %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	for _, ms := range sp.EndToEnd {
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", ms.Name, ms.Bound)
		}
	}
}

// TestQuartilesMatchPython pins summarize to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 {
			t.Errorf("%v: got %g/%g/%g, want %g/%g/%g", tc.in, s.Q1, s.Median, s.Q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "sim_accuracy", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		ms   metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 10.2}, []float64{10.3, 10.4, 10.5}, "unchanged"},
		{lower, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, "worse"},
		{lower, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, "better"},
		// Spread wider than the bound on one side, runs overlapping.
		{lower, []float64{8, 10, 12}, []float64{9, 10.5, 11}, "unresolved"},
		// Wide spread, but every run of B is slower than every run of A.
		{lower, []float64{8, 9, 10}, []float64{13, 16, 19}, "worse"},
		// Exact statistics: any move in the worse direction counts.
		{higher, []float64{0.8, 0.8}, []float64{0.799, 0.799}, "worse"},
		{higher, []float64{0.8, 0.8}, []float64{0.8, 0.8}, "unchanged"},
	} {
		if got := verdict(tc.ms, summarize(tc.a), summarize(tc.b)); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.ms.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestHostClock runs a clock with two kernels at once, as set-ups use,
// and checks that a step is rescaled by the kernel runs around it.
func TestHostClock(t *testing.T) {
	c := newHostClock(2)
	got := c.scale(time.Second)
	if len(c.kernels) != 2 {
		t.Fatalf("%d kernel runs recorded, want 2", len(c.kernels))
	}
	want := refNominal.Seconds() / ((c.kernels[0] + c.kernels[1]) / 2)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("1 s step rescaled to %g s, want %g s", got, want)
	}
}

// TestEventSinkChunks feeds a trace in chunks that split lines and
// checks every event is counted and unit timings parsed.
func TestEventSinkChunks(t *testing.T) {
	trace := `{"ts":0,"ev":"cache","app":"a","hit":false}` + "\n" +
		`{"ts":0,"ev":"profile_unit","app":"a","node":"n1","unit":"resnet[exit@2/8]","wall_ms":1.5}` + "\n" +
		`{"ts":0,"ev":"profile_build","app":"a","wall_ms":2.25,"workers":1,"units":1,"cached":false}` + "\n"
	s := newEventSink()
	for i := 0; i < len(trace); i += 7 {
		end := min(i+7, len(trace))
		if _, err := s.Write([]byte(trace[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	if s.events != 3 || s.byType["cache"] != 1 {
		t.Fatalf("counted %d events, types %v", s.events, s.byType)
	}
	if len(s.units) != 1 || s.units[0].unit != "resnet[exit@2/8]" || s.units[0].wall != 1500*time.Microsecond {
		t.Fatalf("units %+v", s.units)
	}
	if len(s.builds) != 1 || s.builds[0].app != "a" || s.builds[0].wall != 2250*time.Microsecond {
		t.Fatalf("builds %+v", s.builds)
	}
}

// TestChromeSpans writes a small span tree and checks the file is
// Chrome trace_event JSON with self times.
func TestChromeSpans(t *testing.T) {
	t0 := time.Unix(100, 0)
	root := &span{name: "workload", start: t0, end: t0.Add(10 * time.Millisecond)}
	run := root.child("serving.Run", t0.Add(time.Millisecond), t0.Add(9*time.Millisecond))
	run.child("period_plan", t0.Add(2*time.Millisecond), t0.Add(3*time.Millisecond))
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeChrome(path, root); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "serving.Run" || ev.Ph != "X" || ev.Ts != 1000 || ev.Dur != 8000 {
		t.Fatalf("serving.Run event %+v", ev)
	}
	if self := ev.Args["self_ms"].(float64); math.Abs(self-7) > 1e-9 {
		t.Fatalf("serving.Run self %g ms, want 7", self)
	}
}
