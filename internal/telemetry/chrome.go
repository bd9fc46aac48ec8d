package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// requiredFields lists, per event type, the fields every trace line of
// that type must carry (beyond the common "ts"/"ev"). Validate checks
// them; the Chrome exporter relies on them.
var requiredFields = map[string][]string{
	EvRun:            {"method", "gpus", "horizon_ns", "apps"},
	EvPeriod:         {"period", "first_session", "last_session"},
	EvImpact:         {"period", "app", "node", "degree", "retrain"},
	EvPeriodPlan:     {"period", "retrains", "overhead_ns", "cloud_bytes"},
	EvSessionPlan:    {"session", "share", "overhead_ns", "jobs"},
	EvJobPlan:        {"session", "app", "fraction", "batch", "infer_ns", "retrain_ns"},
	EvJob:            {"session", "app", "requests", "lead_ns", "infer_ns", "retrain_ns", "latency_ns", "met", "replay"},
	EvRetrainApply:   {"app", "node", "samples", "apply_session", "plan_idx"},
	EvRetrainDiscard: {"app", "node", "samples"},
	EvEvict:          {"app", "model", "layer", "kind", "bytes", "score", "pin"},
	EvCache:          {"app", "hit"},
	EvCacheCorrupt:   {"app"},
	EvProfileBuild:   {"app", "wall_ms", "workers", "units", "cached"},
	EvProfileUnit:    {"app", "node", "unit", "wall_ms"},
	EvCounters:       {"ff_hits", "ff_misses", "cache_hits", "cache_misses", "cache_corrupt"},
	EvRetrainFault:   {"app", "node", "kind", "attempt"},
	EvRetrainAbandon: {"app", "node", "attempts", "samples"},
	EvDegrade:        {"session", "app"},
	EvBurst:          {"period", "app", "first_session", "sessions", "factor"},
	EvDriftSpike:     {"period", "app", "intensity"},
	EvPlacement:      {"period", "app", "gpu", "ws_bytes", "load_rank"},
	EvGPUCrash:       {"period", "gpu", "alive_mask"},
	EvGPURecover:     {"period", "gpu", "alive_mask"},
	EvReplace:        {"period", "alive_mask", "placed", "unplaced"},
	EvAdmit:          {"period", "gpu", "feasible", "fraction", "shed"},
	EvShed:           {"session", "app", "requests"},
}

// Validate reads a JSONL decision trace and checks every line against
// the event schema: valid JSON, a numeric "ts", a known "ev", and the
// type's required fields. It returns per-type event counts.
func Validate(r io.Reader) (map[string]int, error) {
	counts := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return counts, fmt.Errorf("telemetry: line %d: invalid JSON: %w", line, err)
		}
		ts, ok := m["ts"].(float64)
		if !ok {
			return counts, fmt.Errorf("telemetry: line %d: missing numeric ts", line)
		}
		if ts < 0 {
			return counts, fmt.Errorf("telemetry: line %d: negative ts %g", line, ts)
		}
		ev, ok := m["ev"].(string)
		if !ok {
			return counts, fmt.Errorf("telemetry: line %d: missing ev", line)
		}
		req, known := requiredFields[ev]
		if !known {
			return counts, fmt.Errorf("telemetry: line %d: unknown event type %q", line, ev)
		}
		for _, f := range req {
			if _, ok := m[f]; !ok {
				return counts, fmt.Errorf("telemetry: line %d: %s event missing %q", line, ev, f)
			}
		}
		counts[ev]++
	}
	if err := sc.Err(); err != nil {
		return counts, fmt.Errorf("telemetry: %w", err)
	}
	return counts, nil
}

// chromeEvent is one Chrome trace_event object (the subset Perfetto
// and chrome://tracing consume).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome process/track layout of the exported trace.
const (
	pidServing = 1 // job spans, one track per app
	pidControl = 2 // period boundaries, plans, retrain events
	pidGPUMem  = 3 // eviction instants
)

// ExportChrome converts a JSONL decision trace into Chrome trace_event
// JSON loadable by chrome://tracing and Perfetto. Job executions
// become duration ("X") spans on one track per application; period
// boundaries, plans, and retrain applications become instant events;
// counters become counter ("C") series.
func ExportChrome(r io.Reader, w io.Writer) error {
	tids := map[string]int{}
	tidOf := func(app string) int {
		if id, ok := tids[app]; ok {
			return id
		}
		id := len(tids) + 1
		tids[app] = id
		return id
	}
	us := func(v any) float64 {
		f, _ := v.(float64)
		return f / 1e3 // ns → µs
	}

	out := chromeFile{DisplayTimeUnit: "ms"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		ev, _ := m["ev"].(string)
		ts := us(m["ts"])
		app, _ := m["app"].(string)
		switch ev {
		case EvJob:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: app, Phase: "X", TS: ts, Dur: us(m["latency_ns"]),
				PID: pidServing, TID: tidOf(app),
				Args: map[string]any{
					"session": m["session"], "requests": m["requests"],
					"infer_ms": us(m["infer_ns"]) / 1e3, "retrain_ms": us(m["retrain_ns"]) / 1e3,
					"met": m["met"], "replay": m["replay"],
				},
			})
		case EvPeriod:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("period %v", m["period"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 1, Scope: "g",
			})
		case EvSessionPlan:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "session_plan", Phase: "i", TS: ts, PID: pidControl, TID: 2, Scope: "t",
				Args: map[string]any{"session": m["session"], "share": m["share"], "jobs": m["jobs"]},
			})
		case EvRetrainApply:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("retrain %s/%v", app, m["node"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 3, Scope: "t",
				Args: map[string]any{"samples": m["samples"], "plan_idx": m["plan_idx"]},
			})
		case EvRetrainFault:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("fault %s %s/%v", m["kind"], app, m["node"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 4, Scope: "t",
				Args: map[string]any{"attempt": m["attempt"]},
			})
		case EvRetrainAbandon:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("abandon %s/%v", app, m["node"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 4, Scope: "t",
				Args: map[string]any{"attempts": m["attempts"], "samples": m["samples"]},
			})
		case EvDegrade:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("degrade %s", app), Phase: "i", TS: ts,
				PID: pidControl, TID: 4, Scope: "t",
				Args: map[string]any{"session": m["session"]},
			})
		case EvGPUCrash:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("gpu %v crash", m["gpu"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 5, Scope: "g",
				Args: map[string]any{"period": m["period"], "alive_mask": m["alive_mask"]},
			})
		case EvGPURecover:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("gpu %v recover", m["gpu"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 5, Scope: "g",
				Args: map[string]any{"period": m["period"], "alive_mask": m["alive_mask"]},
			})
		case EvReplace:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "replace", Phase: "i", TS: ts, PID: pidControl, TID: 5, Scope: "t",
				Args: map[string]any{"period": m["period"], "alive_mask": m["alive_mask"],
					"placed": m["placed"], "unplaced": m["unplaced"]},
			})
		case EvAdmit:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("admit gpu %v", m["gpu"]), Phase: "i", TS: ts,
				PID: pidControl, TID: 5, Scope: "t",
				Args: map[string]any{"period": m["period"], "feasible": m["feasible"],
					"fraction": m["fraction"], "shed": m["shed"]},
			})
		case EvShed:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("shed %s", app), Phase: "i", TS: ts,
				PID: pidControl, TID: 5, Scope: "t",
				Args: map[string]any{"session": m["session"], "requests": m["requests"]},
			})
		case EvEvict:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "evict", Phase: "i", TS: ts, PID: pidGPUMem, TID: 1, Scope: "t",
				Args: map[string]any{"app": app, "model": m["model"], "score": m["score"], "pin": m["pin"]},
			})
		case EvCounters:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "fast-forward", Phase: "C", TS: ts, PID: pidControl, TID: 0,
				Args: map[string]any{"hits": m["ff_hits"], "misses": m["ff_misses"]},
			})
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	// Stable event order keeps the export deterministic and viewers
	// happy: sort by timestamp, ties by track.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := &out.TraceEvents[i], &out.TraceEvents[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.TID < b.TID
	})
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
