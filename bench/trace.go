package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// eventSink is the io.Writer behind a tracing telemetry collector. It
// parses the JSONL decision trace as it streams, keeping only counts
// and the profiler's unit timings, so the trace (hundreds of MB on the
// larger workloads) never touches disk.
type eventSink struct {
	partial []byte
	events  int
	byType  map[string]int
	// units holds every profile_unit event's wall time in emission
	// order; builds the per-app profile_build wall times.
	units  []unitEvent
	builds []unitEvent
}

// unitEvent is one profile_unit (or profile_build) event.
type unitEvent struct {
	app, node, unit string
	wall            time.Duration
}

func newEventSink() *eventSink { return &eventSink{byType: map[string]int{}} }

func (s *eventSink) Write(p []byte) (int, error) {
	n := len(p)
	if len(s.partial) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return n, nil
		}
		s.partial = append(s.partial, p[:i]...)
		s.line(s.partial)
		s.partial = s.partial[:0]
		p = p[i+1:]
	}
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return n, nil
		}
		s.line(p[:i])
		p = p[i+1:]
	}
}

func (s *eventSink) line(l []byte) {
	s.events++
	ev := string(jsonField(l, "ev"))
	s.byType[ev]++
	if ev != "profile_unit" && ev != "profile_build" {
		return
	}
	ms, _ := strconv.ParseFloat(string(jsonField(l, "wall_ms")), 64)
	u := unitEvent{
		app:  string(jsonField(l, "app")),
		node: string(jsonField(l, "node")),
		unit: string(jsonField(l, "unit")),
		wall: time.Duration(ms * 1e6),
	}
	if ev == "profile_unit" {
		s.units = append(s.units, u)
	} else {
		s.builds = append(s.builds, u)
	}
}

// jsonField returns the raw value of a top-level key of a one-line JSON
// object, with a string's quotes removed. The trace writer emits flat
// objects of numbers, booleans and escape-free identifier strings.
func jsonField(line []byte, key string) []byte {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(line, k)
	if i < 0 {
		return nil
	}
	v := line[i+len(k):]
	if len(v) > 0 && v[0] == '"' {
		v = v[1:]
		if j := bytes.IndexByte(v, '"'); j >= 0 {
			return v[:j]
		}
		return v
	}
	if j := bytes.IndexAny(v, ",}"); j >= 0 {
		return v[:j]
	}
	return v
}

// span is one timed interval of the benchmark's own call tree.
type span struct {
	name     string
	start    time.Time
	end      time.Time
	args     map[string]any
	children []*span
}

func (s *span) child(name string, start, end time.Time) *span {
	c := &span{name: name, start: start, end: end}
	s.children = append(s.children, c)
	return c
}

// self is the span's duration minus the part its children cover
// (children never overlap: every call they time is sequential).
func (s *span) self() time.Duration {
	d := s.end.Sub(s.start)
	for _, c := range s.children {
		d -= c.end.Sub(c.start)
	}
	return d
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the span tree as Chrome trace_event JSON, which
// Perfetto and chrome://tracing open. Every span carries its self time.
func writeChrome(path string, root *span) error {
	var evs []chromeEvent
	var walk func(s *span)
	walk = func(s *span) {
		args := map[string]any{"self_ms": float64(s.self()) / 1e6}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Sub(root.start)) / 1e3,
			Dur:  float64(s.end.Sub(s.start)) / 1e3,
			Args: args,
		})
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(root)
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
