package gpumem

import (
	"testing"
	"time"

	"adainf/internal/simtime"
)

// BenchmarkAcquirePerRequest drives one partition the way the /M1
// ablation's executor does (gpu.Executor without MaximizeUsage): every
// request of a batch runs the model's layers on its own, touching the
// layer's parameters, the previous layer's output and a fresh output,
// and the intermediates linger until the job ends. The resident set
// grows to a few hundred contents, so most acquires pay for an
// eviction choice among 100–300 candidates. One op is one job.
func BenchmarkAcquirePerRequest(b *testing.B) {
	const (
		layers = 24
		batch  = 16
	)
	m := NewManager(Config{
		GPUBytes: 160 * mb,
		PinBytes: 32 * mb,
		Policy:   PriorityPolicy{Alpha: 0.4},
	})
	now := simtime.Instant(0)
	var seq uint64
	var buf [3]Access
	b.ReportAllocs()
	b.ResetTimer()
	for job := 0; job < b.N; job++ {
		jobID := uint64(job)
		for r := 0; r < batch; r++ {
			seq++
			var prev Content
			for i := 0; i < layers; i++ {
				accs := append(buf[:0], Access{
					Content: paramContent("app", "m", i, int64(2+i%5)*mb),
					Phase:   PhaseInference, Model: "m", JobID: jobID,
				})
				if i > 0 {
					accs = append(accs, Access{Content: prev, Phase: PhaseInference, Model: "m", JobID: jobID})
				}
				out := intermediateContent("app", "m", i, seq, mb/2+int64(i%3)*mb/4)
				accs = append(accs, Access{Content: out, Phase: PhaseInference, Model: "m", JobID: jobID})
				d, err := m.Acquire(now, accs)
				if err != nil {
					b.Fatal(err)
				}
				now = now.Add(d + 50*time.Microsecond)
				prev = out
			}
		}
		m.ReleaseMatching(func(id ContentID) bool { return id.Kind == KindIntermediate })
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().Evictions)/float64(b.N), "evictions/op")
}
