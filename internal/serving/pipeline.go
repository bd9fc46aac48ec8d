package serving

import (
	"fmt"
	"math"
	"math/rand"

	"adainf/internal/dist"
	"adainf/internal/faults"
	"adainf/internal/metrics"
	"adainf/internal/simtime"
)

// A run draws two random streams that no scheduling decision reads: the
// request arrivals (each app's trace.Generator and trace.Predictor, plus
// the fault injector's pure-hash bursts) and each served prediction's
// class and correctness (the run RNG). Each has one owner goroutine
// besides the loop's, and keeps its single consumer and its draw order,
// so a run's results do not depend on how the three goroutines
// interleave:
//
//   - the filler draws period p+1's rows while period p's sessions run;
//     the loop joins it at each boundary and swaps the two row buffers;
//   - the scorer takes per-leaf prediction tasks in job order and adds
//     the correct counts; the loop keeps every other recorder counter.
//
// runLoop.run joins both before it returns, on success and on error.

// periodRows is one period's arrival and prediction rows, filled by the
// filler and read by the loop once joined.
type periodRows struct {
	// actual and predicted are [app][session-in-period]. Counts that do
	// not fit an int32 fail the run (see fill).
	actual    [][]int32
	predicted [][]int32
	// work marks sessions with any actual or predicted request.
	work []bool
	// bursts is each app's arrival-burst roll for the period.
	bursts []burstRoll
}

type burstRoll struct {
	b  faults.Burst
	ok bool
}

func newPeriodRows(apps, sessionsPerPeriod int) *periodRows {
	r := &periodRows{
		actual:    make([][]int32, apps),
		predicted: make([][]int32, apps),
		work:      make([]bool, sessionsPerPeriod),
		bursts:    make([]burstRoll, apps),
	}
	for i := range r.actual {
		r.actual[i] = make([]int32, sessionsPerPeriod)
		r.predicted[i] = make([]int32, sessionsPerPeriod)
	}
	return r
}

// filler owns every app's arrival generator and request predictor for
// the run. At most one fill is in flight.
type filler struct {
	states  []*appState
	flt     *faults.Injector
	done    chan error
	running bool
}

// start fills rows with the sessions [first, last] of period on a new
// goroutine.
func (f *filler) start(period, first, last int, rows *periodRows) {
	f.running = true
	go func() { f.done <- f.fill(period, first, last, rows) }()
}

// join waits for the fill in flight, if any, and returns its error.
func (f *filler) join() error {
	if !f.running {
		return nil
	}
	f.running = false
	return <-f.done
}

// fill draws the period's arrivals and predictions one app at a time.
// Each app's generator and predictor is independent of the others and
// of the run RNG, and the predictor observes every session (including
// empty ones), so batching per app reproduces exactly the per-session
// call sequences.
func (f *filler) fill(period, first, last int, rows *periodRows) error {
	n := last - first + 1
	clear(rows.work[:n])
	for i, st := range f.states {
		arow, prow := rows.actual[i], rows.predicted[i]
		var br burstRoll
		if f.flt != nil {
			br.b, br.ok = f.flt.BurstFor(period, st.inst.App.Name, n)
		}
		rows.bursts[i] = br
		for s := 0; s < n; s++ {
			ws := clock.SessionStart(first + s)
			a := st.gen.CountInWindow(ws, ws.Add(clock.Session))
			if a > math.MaxInt32 {
				return rowOverflow(st, first+s)
			}
			if br.ok && s >= br.b.Start && s < br.b.End {
				// The burst multiplies arrivals before the predictor
				// observes them: predictions lag the surge, so plans are
				// undersized exactly as a real flash crowd undersizes
				// them.
				if a > 0 && br.b.Factor > math.MaxInt32/a {
					return rowOverflow(st, first+s)
				}
				a *= br.b.Factor
			}
			p := st.pred.Predict()
			if p > math.MaxInt32 {
				return rowOverflow(st, first+s)
			}
			st.pred.Observe(a)
			arow[s], prow[s] = int32(a), int32(p)
			if a > 0 || p > 0 {
				rows.work[s] = true
			}
		}
	}
	return nil
}

func rowOverflow(st *appState, sess int) error {
	return fmt.Errorf("serving: app %q session %d: more requests than an int32 arrival row holds",
		st.inst.App.Name, sess)
}

// Scorer batches: a fixed pool, each holding up to scoreBatchTasks
// tasks. Once every batch is queued, the loop waits for the scorer.
const (
	scoreBatches    = 4
	scoreBatchTasks = 256
)

// scoreTask is one leaf's predictions for one job: n class draws from
// the CDF at arena[cdf:cdf+k], each followed by a correctness draw
// against the probability at arena[probs+class].
type scoreTask struct {
	start         simtime.Instant
	n             int32
	cdf, probs, k int32
}

// scoreBatch is a run of tasks in job order, with the snapshots of the
// CDFs and correctness vectors they read, copied so the loop may
// rebuild its own at the next boundary or model update.
type scoreBatch struct {
	tasks []scoreTask
	arena []float64
}

// scorer owns the run RNG and the recorder's correct counts.
type scorer struct {
	rng *rand.Rand
	rec *metrics.Recorder
	// work carries filled batches to the scorer and free returns them;
	// each holds the whole pool, so neither send blocks on a full
	// buffer.
	work chan *scoreBatch
	free chan *scoreBatch
	done chan struct{}
	// cur is the batch the loop is filling, nil between batches; seq is
	// its number, counted from 1 so a cleared leafProbs seq never
	// matches.
	cur *scoreBatch
	seq uint64
}

func newScorer(rng *rand.Rand, rec *metrics.Recorder) *scorer {
	s := &scorer{
		rng:  rng,
		rec:  rec,
		work: make(chan *scoreBatch, scoreBatches),
		free: make(chan *scoreBatch, scoreBatches),
		done: make(chan struct{}),
	}
	for i := 0; i < scoreBatches; i++ {
		s.free <- &scoreBatch{tasks: make([]scoreTask, 0, scoreBatchTasks)}
	}
	go s.loop()
	return s
}

// loop scores batches in the order they were sent.
func (s *scorer) loop() {
	defer close(s.done)
	for b := range s.work {
		for _, t := range b.tasks {
			cdf := b.arena[t.cdf : t.cdf+t.k]
			probs := b.arena[t.probs : t.probs+t.k]
			correct := 0
			for r := int32(0); r < t.n; r++ {
				class := dist.SampleCDF(s.rng, cdf)
				if s.rng.Float64() < probs[class] {
					correct++
				}
			}
			s.rec.RecordCorrect(t.start, correct)
		}
		b.tasks, b.arena = b.tasks[:0], b.arena[:0]
		s.free <- b
	}
}

// add queues one leaf's n predictions at start. pm is the leaf's
// accuracy-memo entry, whose vector is current, and cdf its live CDF.
// Each is copied into the batch unless the batch already holds it: the
// CDF once per batch and period, the vector once per batch and memo
// miss.
func (s *scorer) add(start simtime.Instant, n int, cdf []float64, pm *leafProbs) {
	if s.cur == nil {
		s.cur = <-s.free
		s.seq++
	}
	b := s.cur
	if pm.cdfSeq != s.seq {
		pm.cdfSeq, pm.cdfOff = s.seq, int32(len(b.arena))
		b.arena = append(b.arena, cdf...)
	}
	if pm.probsSeq != s.seq {
		pm.probsSeq, pm.probsOff = s.seq, int32(len(b.arena))
		b.arena = append(b.arena, pm.probs...)
	}
	b.tasks = append(b.tasks, scoreTask{start: start, n: int32(n), cdf: pm.cdfOff, probs: pm.probsOff, k: int32(len(cdf))})
	if len(b.tasks) == scoreBatchTasks {
		s.work <- b
		s.cur = nil
	}
}

// stop sends the batch in progress, waits for every queued task to be
// scored and for the scorer to exit.
func (s *scorer) stop() {
	if s.cur != nil {
		s.work <- s.cur
		s.cur = nil
	}
	close(s.work)
	<-s.done
}
