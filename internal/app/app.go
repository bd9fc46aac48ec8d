// Package app defines multi-model applications: DAGs of DNN models
// with per-model data tasks, plus live application instances that bind
// each model to a drifting data stream and an evolving knowledge state.
//
// The catalog (catalog.go) reproduces the applications of the paper's
// evaluation: the video-surveillance app of Fig. 1, the complex
// social-media app, and the six additional Nexus-derived apps of §4.
package app

import (
	"fmt"

	"adainf/internal/simtime"
	"adainf/internal/synthdata"
)

// Node is one model vertex of an application DAG.
type Node struct {
	// Name is the task name, unique within the app (e.g. "vehicle-type").
	Name string
	// Model is the zoo architecture name (e.g. "MobileNetV2").
	Model string
	// Deps are the names of upstream nodes whose outputs this model
	// consumes. Empty for root models.
	Deps []string
	// Task describes the node's classification data process.
	Task synthdata.TaskSpec
	// AccThreshold is A_m: the minimum acceptable accuracy of an
	// early-exit structure for this model (§3.3.2).
	AccThreshold float64
}

// App is a multi-model application.
type App struct {
	// Name identifies the application.
	Name string
	// SLO is the application's end-to-end latency SLO.
	SLO simtime.Duration
	// Nodes are the models; Validate enforces topological order.
	Nodes []Node
}

// Validate checks the DAG: unique node names, dependencies referring to
// earlier nodes only (which also guarantees acyclicity), a positive
// SLO, and sane thresholds.
func (a *App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("app: application with empty name")
	}
	if a.SLO <= 0 {
		return fmt.Errorf("app %q: non-positive SLO %v", a.Name, a.SLO)
	}
	if len(a.Nodes) == 0 {
		return fmt.Errorf("app %q: no models", a.Name)
	}
	seen := make(map[string]bool, len(a.Nodes))
	for i, n := range a.Nodes {
		if n.Name == "" {
			return fmt.Errorf("app %q: node %d has empty name", a.Name, i)
		}
		if seen[n.Name] {
			return fmt.Errorf("app %q: duplicate node %q", a.Name, n.Name)
		}
		if n.Model == "" {
			return fmt.Errorf("app %q: node %q has no model", a.Name, n.Name)
		}
		for _, d := range n.Deps {
			if !seen[d] {
				return fmt.Errorf("app %q: node %q depends on %q which is not an earlier node", a.Name, n.Name, d)
			}
		}
		if n.AccThreshold < 0 || n.AccThreshold >= 1 {
			return fmt.Errorf("app %q: node %q threshold %g out of [0,1)", a.Name, n.Name, n.AccThreshold)
		}
		seen[n.Name] = true
	}
	return nil
}

// Node returns the named node, or nil.
func (a *App) Node(name string) *Node {
	for i := range a.Nodes {
		if a.Nodes[i].Name == name {
			return &a.Nodes[i]
		}
	}
	return nil
}

// Leaves returns the names of nodes no other node depends on. The
// paper's accuracy metric counts the predictions of these output
// models.
func (a *App) Leaves() []string {
	depended := make(map[string]bool)
	for _, n := range a.Nodes {
		for _, d := range n.Deps {
			depended[d] = true
		}
	}
	var out []string
	for _, n := range a.Nodes {
		if !depended[n.Name] {
			out = append(out, n.Name)
		}
	}
	return out
}

// SLOms returns the SLO in milliseconds.
func (a *App) SLOms() float64 { return a.SLO.Seconds() * 1e3 }
