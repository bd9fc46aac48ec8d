package app

import (
	"fmt"

	"adainf/internal/dist"
	"adainf/internal/dnn"
	"adainf/internal/synthdata"
)

// NodeInstance is the live state of one model of a running application:
// its data stream, its deployed knowledge, its early-exit structure
// set, and the datasets drift detection works with.
type NodeInstance struct {
	// Node is the static DAG vertex.
	Node *Node
	// Arch is the node's model architecture.
	Arch *dnn.Arch
	// Stream is the node's drifting data process.
	Stream *synthdata.Stream
	// State is the deployed model's knowledge.
	State *dnn.State
	// Structures are the node's deployable structures, shallowest exit
	// first, full structure last.
	Structures []dnn.Structure
	// InitialAccuracy is I_m: the initially trained model's accuracy
	// on the initial test data (§3.2).
	InitialAccuracy float64
	// OldData are the "old training samples" drift detection compares
	// against: the data the deployed model was last retrained on
	// (initially the bootstrap training set). It advances at a period
	// boundary only if the model was actually retrained during the
	// period — a stale model keeps its old reference, so accumulated
	// drift keeps growing more divergent and cannot be missed twice.
	OldData *synthdata.Dataset
	// Pool are the labelled samples collected during the previous
	// period — the current period's retraining data.
	//
	// Pool and OldData are owned by the instance: a dataset read from
	// either stays valid until the AdvancePeriod that drops it, which
	// empties it and reuses its storage for the next pool. Keep what
	// must outlive that boundary as a copy, not as the dataset.
	Pool *synthdata.Dataset
	// UsedSamples counts retraining samples consumed this period so
	// concurrent jobs do not retrain on the same samples (§3.3.2).
	UsedSamples int
	// trainedThisPeriod marks that some retraining updated the model
	// during the current period (see NoteTrained).
	trainedThisPeriod bool
}

// NoteTrained records that the node's model was retrained during the
// current period, so the period boundary adopts the current pool as the
// model's new "old training samples".
func (ni *NodeInstance) NoteTrained() { ni.trainedThisPeriod = true }

// TrainedThisPeriod reports whether the model was retrained during the
// current period.
func (ni *NodeInstance) TrainedThisPeriod() bool { return ni.trainedThisPeriod }

// LiveDist returns the node's current live class distribution.
func (ni *NodeInstance) LiveDist() *dist.Categorical { return ni.Stream.LabelDist() }

// PoolDist returns the empirical class distribution of the retraining
// pool — the target the golden-model-labelled retraining drives the
// knowledge toward.
func (ni *NodeInstance) PoolDist() (*dist.Categorical, error) {
	if ni.Pool == nil || len(ni.Pool.Samples) == 0 {
		return nil, fmt.Errorf("app: node %q has no retraining pool", ni.Node.Name)
	}
	return dist.NewCategorical(ni.Node.Task.Classes, ni.Pool.LabelDistribution(len(ni.Node.Task.Classes)))
}

// RemainingSamples returns how many pool samples have not yet been
// consumed by retraining this period.
func (ni *NodeInstance) RemainingSamples() int {
	if ni.Pool == nil {
		return 0
	}
	n := len(ni.Pool.Samples) - ni.UsedSamples
	if n < 0 {
		return 0
	}
	return n
}

// ConsumeSamples records that n pool samples were used for retraining
// and returns the number actually available (≤ n).
func (ni *NodeInstance) ConsumeSamples(n int) int {
	avail := ni.RemainingSamples()
	if n > avail {
		n = avail
	}
	ni.UsedSamples += n
	return n
}

// FullStructure returns the node's complete structure.
func (ni *NodeInstance) FullStructure() dnn.Structure {
	return ni.Structures[len(ni.Structures)-1]
}

// SmallestStructure returns the node's shallowest-exit structure — the
// cheapest deployable configuration, used as the graceful-degradation
// fallback when GPU memory cannot be allocated for the planned one.
func (ni *NodeInstance) SmallestStructure() dnn.Structure {
	return ni.Structures[0]
}

// Instance is a live application: static DAG plus per-node state.
type Instance struct {
	App *App
	// ByName maps node names to live node state.
	ByName map[string]*NodeInstance
	// ordered caches Nodes order for deterministic iteration.
	ordered []*NodeInstance
	period  int
}

// InstanceConfig tunes instantiation.
type InstanceConfig struct {
	// Seed derives the per-node stream seeds.
	Seed int64
	// PoolSamples sizes each period's retraining pool per node
	// (default 1000).
	PoolSamples int
}

// bootstrapSamples sizes each node's initial training set — the "first
// 40% of the dataset" in §2.
const bootstrapSamples = 2000

// NewInstance builds a live instance of the application: streams are
// created, models are bootstrapped on initial data, and the first
// retraining pool is collected.
func NewInstance(a *App, cfg InstanceConfig) (*Instance, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if cfg.PoolSamples < 0 {
		return nil, fmt.Errorf("app: InstanceConfig.PoolSamples = %d, want >= 0", cfg.PoolSamples)
	}
	if cfg.PoolSamples == 0 {
		cfg.PoolSamples = 1000
	}
	inst := &Instance{App: a, ByName: make(map[string]*NodeInstance, len(a.Nodes))}
	for i := range a.Nodes {
		n := &a.Nodes[i]
		arch, ok := dnn.ByName(n.Model)
		if !ok {
			return nil, fmt.Errorf("app %q: node %q uses unknown model %q", a.Name, n.Name, n.Model)
		}
		stream, err := synthdata.NewStream(n.Task, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("app %q: node %q: %w", a.Name, n.Name, err)
		}
		boot := synthdata.Collect(stream, bootstrapSamples)
		bootDist, err := dist.NewCategorical(n.Task.Classes, boot.LabelDistribution(len(n.Task.Classes)))
		if err != nil {
			return nil, fmt.Errorf("app %q: node %q bootstrap: %w", a.Name, n.Name, err)
		}
		state := dnn.NewState(arch, bootDist)
		ni := &NodeInstance{
			Node:            n,
			Arch:            arch,
			Stream:          stream,
			State:           state,
			Structures:      dnn.EarlyExitStructures(arch, dnn.ExitStride),
			InitialAccuracy: state.Accuracy(stream.LabelDist()),
			OldData:         boot,
			// Period 0 serves with fresh models; the first pool is the
			// bootstrap-period data itself.
			Pool: synthdata.Collect(stream, cfg.PoolSamples),
		}
		inst.ByName[n.Name] = ni
		inst.ordered = append(inst.ordered, ni)
	}
	return inst, nil
}

// Nodes returns the node instances in DAG (topological) order.
func (i *Instance) Nodes() []*NodeInstance { return i.ordered }

// ShockDrift applies an abrupt, out-of-schedule drift spike to every
// node's stream: one class surges by intensity and its feature mean
// shifts along its novelty direction, while the retraining pool —
// already collected from the pre-shock distribution — goes stale. The
// seed derives per-node sub-seeds with the same stride NewInstance uses,
// so injection never consumes the streams' own RNG state.
func (i *Instance) ShockDrift(seed int64, intensity float64) {
	for k, ni := range i.ordered {
		ni.Stream.Shock(dist.NewRNG(seed+int64(k)*7919), intensity)
	}
}

// Period returns the current period index.
func (i *Instance) Period() int { return i.period }

// AdvancePeriod ends the current period: each node that was retrained
// adopts its pool as the new "old training samples", a fresh pool is
// sampled from the closing period's distribution, and the streams
// drift into the new period. poolSamples ≤ 0 keeps each node's
// previous pool size. Each node drops one dataset — its old OldData
// if it was retrained, its old pool otherwise — and the new pool
// reuses that dataset's storage, leaving it empty.
func (i *Instance) AdvancePeriod(poolSamples int) {
	for _, ni := range i.ordered {
		n := poolSamples
		if n <= 0 {
			n = len(ni.Pool.Samples)
		}
		dropped := ni.Pool
		if ni.trainedThisPeriod {
			// The model now reflects this pool: it becomes the drift
			// detector's reference. An un-retrained model keeps its
			// older reference so accumulated drift stays visible.
			dropped = ni.OldData
			ni.OldData = ni.Pool
			ni.trainedThisPeriod = false
		}
		if dropped == ni.OldData {
			dropped = nil // one dataset set as both pool and reference
		}
		// The new pool is drawn from the period that is ending — the
		// requests "collected during the previous time period" (§1).
		ni.Pool = synthdata.Recollect(ni.Stream, n, dropped)
		ni.UsedSamples = 0
		ni.Stream.AdvancePeriod()
	}
	i.period++
}
