package gpumem

import (
	"testing"
	"time"

	"adainf/internal/simtime"
)

// perRequestJob drives one partition the way the /M1 ablation's
// executor does (gpu.Executor without MaximizeUsage): every request of
// a batch runs the model's layers on its own, touching the layer's
// parameters, the previous layer's output and a fresh output, and the
// intermediates linger until the job ends. The resident set grows to a
// few hundred contents, so most acquires pay for an eviction choice
// among 100–300 candidates.
type perRequestJob struct {
	now simtime.Instant
	seq uint64
	job uint64
	buf [3]Access
}

func newPerRequestManager() *Manager {
	return NewManager(Config{
		GPUBytes: 160 * mb,
		PinBytes: 32 * mb,
		Policy:   PriorityPolicy{Alpha: 0.4},
	})
}

// run executes the next job on m.
func (j *perRequestJob) run(m *Manager) error {
	const (
		layers = 24
		batch  = 16
	)
	j.job++
	for r := 0; r < batch; r++ {
		j.seq++
		var prev Content
		for i := 0; i < layers; i++ {
			accs := append(j.buf[:0], Access{
				Content: paramContent("app", "m", i, int64(2+i%5)*mb),
				Phase:   PhaseInference, Model: "m", JobID: j.job,
			})
			if i > 0 {
				accs = append(accs, Access{Content: prev, Phase: PhaseInference, Model: "m", JobID: j.job})
			}
			out := intermediateContent("app", "m", i, j.seq, mb/2+int64(i%3)*mb/4)
			accs = append(accs, Access{Content: out, Phase: PhaseInference, Model: "m", JobID: j.job})
			d, err := m.Acquire(j.now, accs)
			if err != nil {
				return err
			}
			j.now = j.now.Add(d + 50*time.Microsecond)
			prev = out
		}
	}
	m.ReleaseMatching(func(id ContentID) bool { return id.Kind == KindIntermediate })
	return nil
}

// BenchmarkAcquirePerRequest times perRequestJob on one manager. One
// op is one job.
func BenchmarkAcquirePerRequest(b *testing.B) {
	m := newPerRequestManager()
	var j perRequestJob
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.run(m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().Evictions)/float64(b.N), "evictions/op")
}

// TestWarmPerRequestJobAllocs gates the per-request path's garbage: on
// a warm manager, released entries and index slots are recycled, so a
// 384-acquire job allocates next to nothing.
func TestWarmPerRequestJobAllocs(t *testing.T) {
	m := newPerRequestManager()
	var j perRequestJob
	for i := 0; i < 3; i++ {
		if err := j.run(m); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if e := j.run(m); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 4 {
		t.Fatalf("warm per-request job made %.0f allocations, want at most 4", allocs)
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("vacuous: the job evicted nothing")
	}
}
