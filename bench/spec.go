package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the workloads, and each metric's unit,
// direction and (end-to-end only) regression bound. The program reads
// it rather than restating it, so the printed units and the compare
// verdicts always follow the file.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// why returns the recorded reason for a workload.
func (s *spec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}
