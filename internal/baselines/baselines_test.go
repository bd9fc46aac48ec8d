package baselines

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/cluster"
	"adainf/internal/dist"
	"adainf/internal/gpu"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

var fxProfile *profile.AppProfile

func fixture(t testing.TB) (*app.Instance, *profile.AppProfile) {
	t.Helper()
	if fxProfile == nil {
		p, err := profile.BuildAppProfile(app.VideoSurveillance(), profile.Config{
			Strategy: gpu.Strategy{MaximizeUsage: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		fxProfile = p
	}
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 5, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		inst.AdvancePeriod(0)
	}
	return inst, fxProfile
}

func periodCtx(t *testing.T, inst *app.Instance, prof *profile.AppProfile) *sched.PeriodContext {
	t.Helper()
	return &sched.PeriodContext{
		Period: inst.Period(),
		Start:  0,
		Length: 50 * time.Second,
		GPUs:   4,
		Rand:   dist.NewRNG(11),
		Jobs:   []sched.JobRequest{{Instance: inst, Profile: prof}},
	}
}

func TestEkyaName(t *testing.T) {
	if NewEkya().Name() != "Ekya" {
		t.Fatal("name")
	}
}

func TestEkyaPeriodPlanRetrainsEveryNode(t *testing.T) {
	inst, prof := fixture(t)
	e := NewEkya()
	plan, err := e.OnPeriodStart(periodCtx(t, inst, prof))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Overhead != EkyaOverhead {
		t.Fatalf("overhead = %v, want 8.4s (Table 1)", plan.Overhead)
	}
	// Ekya retrains every model, drift-aware or not (§3.2 contrast).
	nodes := make(map[string]bool)
	for _, r := range plan.Retrains {
		nodes[r.Node] = true
		if r.OnCloud {
			t.Fatal("Ekya retrains on the edge")
		}
		if r.Samples <= 0 || r.GPUFraction <= 0 || r.Busy <= 0 {
			t.Fatalf("degenerate retrain: %+v", r)
		}
		// Completions land within the period and after the 8.4 s
		// scheduling decision (Fig. 7b: 20–23 s region).
		if r.Completion.Duration() < EkyaOverhead {
			t.Fatalf("completion %v before scheduling finished", r.Completion)
		}
		if r.Completion.Duration() > 50*time.Second {
			t.Fatalf("completion %v outside the period", r.Completion)
		}
	}
	if len(nodes) != 3 {
		t.Fatalf("Ekya retrained %d of 3 nodes", len(nodes))
	}
}

func TestEkyaSessionPlanEqualSplit(t *testing.T) {
	inst, prof := fixture(t)
	inst2, err := app.NewInstance(app.BikeRackOccupancy(), app.InstanceConfig{Seed: 6, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := profile.BuildAppProfile(app.BikeRackOccupancy(), profile.Config{
		Strategy: gpu.Strategy{MaximizeUsage: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEkya()
	ctx := &sched.SessionContext{
		GPUShare: 0.4,
		Jobs: []sched.JobRequest{
			{Instance: inst, Profile: prof, Requests: 32},
			{Instance: inst2, Profile: prof2, Requests: 1},
		},
	}
	plan, err := e.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Jobs[0].Fraction != plan.Jobs[1].Fraction {
		t.Fatalf("Ekya split unequal: %v vs %v", plan.Jobs[0].Fraction, plan.Jobs[1].Fraction)
	}
	for _, jp := range plan.Jobs {
		for _, np := range jp.Nodes {
			if !np.Structure.IsFull() {
				t.Fatal("Ekya used an early exit")
			}
			if np.RetrainTime != 0 {
				t.Fatal("Ekya planned incremental retraining")
			}
		}
	}
}

// TestEkyaSessionMemoExactFraction plans at two fractions that round to
// the same 1/1000: the memo must not hand the second one the first
// one's timings.
func TestEkyaSessionMemoExactFraction(t *testing.T) {
	inst, prof := fixture(t)
	planAt := func(e *Ekya, share float64) sched.JobPlan {
		t.Helper()
		p, err := e.PlanSession(&sched.SessionContext{
			GPUShare: share,
			Jobs:     []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 32}},
		})
		if err != nil {
			t.Fatal(err)
		}
		jp := p.Jobs[0]
		jp.Nodes = append([]sched.NodePlan(nil), jp.Nodes...)
		return jp
	}
	e := NewEkya()
	planAt(e, 0.4)
	got := planAt(e, 0.4004)
	want := planAt(NewEkya(), 0.4004)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memoized plan at 0.4004 = %+v, a fresh Ekya plans %+v", got, want)
	}
}

func TestScroogeName(t *testing.T) {
	if NewScrooge(false).Name() != "Scrooge" || NewScrooge(true).Name() != "Scrooge*" {
		t.Fatal("names")
	}
}

func TestScroogeCloudRetraining(t *testing.T) {
	inst, prof := fixture(t)
	s := NewScrooge(false)
	plan, err := s.OnPeriodStart(periodCtx(t, inst, prof))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Retrains) != 3 {
		t.Fatalf("retrains = %d", len(plan.Retrains))
	}
	for _, r := range plan.Retrains {
		if !r.OnCloud || r.GPUFraction != 0 {
			t.Fatalf("Scrooge retrain not on cloud: %+v", r)
		}
	}
	if plan.EdgeCloudBytes == 0 || plan.EdgeCloudTransfer == 0 {
		t.Fatal("no WAN accounting (Table 1)")
	}
}

func TestScroogeSolveCacheWindow(t *testing.T) {
	inst, prof := fixture(t)
	s := NewScrooge(false)
	jobs := []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 8}}
	first, err := s.PlanSession(&sched.SessionContext{Session: 0, Start: 0, GPUShare: 0.5, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if first.Overhead != ScroogeOverhead {
		t.Fatalf("solve overhead = %v, want 100ms (Table 1)", first.Overhead)
	}
	// Sessions inside the same 100 ms window reuse the solve.
	second, err := s.PlanSession(&sched.SessionContext{
		Session: 1, Start: simtime.Instant(5 * time.Millisecond), GPUShare: 0.5, Jobs: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Overhead != 0 {
		t.Fatal("cached session re-charged the solve")
	}
	if second.Jobs[0].Fraction != first.Jobs[0].Fraction {
		t.Fatal("cached plan diverged")
	}
	// A new window re-solves.
	third, err := s.PlanSession(&sched.SessionContext{
		Session: 21, Start: simtime.Instant(105 * time.Millisecond), GPUShare: 0.5, Jobs: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.Overhead != ScroogeOverhead {
		t.Fatal("new window did not re-solve")
	}
}

// TestScroogeSolveCachePerLane plans four lanes in turn, as a sharded
// server does: each lane solves once per 100 ms window and replays its
// own solve for the window's later sessions.
func TestScroogeSolveCachePerLane(t *testing.T) {
	inst, prof := fixture(t)
	const lanes = 4
	s := NewScrooge(false)
	// Lane g serves one job with a distinct load, so a plan replayed on
	// the wrong lane is visible.
	plan := func(sess, g, njobs int) *sched.SessionPlan {
		t.Helper()
		jobs := make([]sched.JobRequest, njobs)
		for i := range jobs {
			jobs[i] = sched.JobRequest{Instance: inst, Profile: prof, Requests: 8 << g}
		}
		p, err := s.PlanSession(&sched.SessionContext{
			Session: sess, Start: simtime.Instant(time.Duration(sess) * 5 * time.Millisecond),
			GPU: g, GPUShare: 0.5, Jobs: jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	solved := make([][]sched.JobPlan, lanes)
	for g := 0; g < lanes; g++ {
		p := plan(0, g, 1)
		if p.Overhead != ScroogeOverhead {
			t.Fatalf("lane %d first plan overhead = %v, want a solve", g, p.Overhead)
		}
		solved[g] = copyJobPlans(p.Jobs) // p's storage is reused by later calls
	}
	for g := 1; g < lanes; g++ {
		if reflect.DeepEqual(solved[g], solved[0]) {
			t.Fatalf("lanes 0 and %d solved alike; the replay check is vacuous", g)
		}
	}
	for g := 0; g < lanes; g++ {
		p := plan(1, g, 1)
		if p.Overhead != 0 {
			t.Errorf("lane %d re-solved inside its window", g)
		}
		if p.Session != 1 || !reflect.DeepEqual(p.Jobs, solved[g]) {
			t.Errorf("lane %d replayed %+v, want its own solve %+v", g, p.Jobs, solved[g])
		}
	}
	// A changed job count re-solves only that lane.
	for g := 0; g < lanes; g++ {
		njobs := 1
		if g == 2 {
			njobs = 2
		}
		if got, want := plan(2, g, njobs).Overhead > 0, g == 2; got != want {
			t.Errorf("lane %d after lane 2's job count changed: solved = %v, want %v", g, got, want)
		}
	}
	// A new period re-solves every lane, still inside window 0.
	if _, err := s.OnPeriodStart(periodCtx(t, inst, prof)); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < lanes; g++ {
		if plan(3, g, 1).Overhead != ScroogeOverhead {
			t.Errorf("lane %d kept its solve across a period start", g)
		}
	}
}

// copyJobPlans deep-copies job plans, Nodes included: a scheduler may
// reuse a returned plan's storage on its next call.
func copyJobPlans(jobs []sched.JobPlan) []sched.JobPlan {
	out := append([]sched.JobPlan(nil), jobs...)
	for i := range out {
		out[i].Nodes = append([]sched.NodePlan(nil), out[i].Nodes...)
	}
	return out
}

// TestScroogePlanSessionLeavesJobsUnchanged plans the same jobs over
// several windows: Scrooge pads its own copy of the request counts, so
// the caller's jobs, requests and cost memos included, never move.
func TestScroogePlanSessionLeavesJobsUnchanged(t *testing.T) {
	inst, prof := fixture(t)
	for _, star := range []bool{false, true} {
		s := NewScrooge(star)
		jobs := []sched.JobRequest{
			{Instance: inst, Profile: prof, Requests: 8},
			{Instance: inst, Profile: prof, Requests: 0},
		}
		want := append([]sched.JobRequest(nil), jobs...)
		for w := 0; w < 4; w++ {
			p, err := s.PlanSession(&sched.SessionContext{
				Session: 20 * w, Start: simtime.Instant(time.Duration(w) * ScroogeOverhead),
				GPUShare: 0.5, Jobs: jobs,
			})
			if err != nil {
				t.Fatal(err)
			}
			if p.Overhead != ScroogeOverhead {
				t.Fatalf("star=%v window %d: no solve", star, w)
			}
			if !reflect.DeepEqual(jobs, want) {
				t.Fatalf("star=%v window %d: caller's jobs moved to %+v, want %+v", star, w, jobs, want)
			}
		}
	}
}

// TestScroogeRejectsBadLane checks that a lane outside [0, MaxGPUs) is
// an error, returned before any lane storage is grown.
func TestScroogeRejectsBadLane(t *testing.T) {
	inst, prof := fixture(t)
	s := NewScrooge(false)
	for _, g := range []int{-1, cluster.MaxGPUs} {
		_, err := s.PlanSession(&sched.SessionContext{
			GPU: g, GPUShare: 0.5,
			Jobs: []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 8}},
		})
		if err == nil {
			t.Errorf("lane %d: no error", g)
		}
	}
	if len(s.slots) != 0 {
		t.Errorf("bad lanes grew %d solve slots", len(s.slots))
	}
}

// TestScroogeStorageReuseMatchesFresh drives one Scrooge (and one
// Scrooge*) through a long seeded sequence of sessions that vary the
// job count, requests, share, lane and window, with period starts in
// between. Every solve must deep-equal a fresh instance's solve of the
// same context, and every cache hit must replay the lane's last solve:
// reusing the per-lane plan storage never leaks one solve into another.
func TestScroogeStorageReuseMatchesFresh(t *testing.T) {
	inst, prof := fixture(t)
	const lanes = 4
	for _, star := range []bool{false, true} {
		rng := rand.New(rand.NewSource(31))
		s := NewScrooge(star)
		last := make([][]sched.JobPlan, lanes)
		sess, njobs, solves, hits := 0, 1, 0, 0
		for step := 0; step < 600; step++ {
			if rng.Intn(10) == 0 {
				njobs = 1 + rng.Intn(4) // a changed job count re-solves
			}
			switch r := rng.Intn(20); {
			case r == 0:
				if _, err := s.OnPeriodStart(periodCtx(t, inst, prof)); err != nil {
					t.Fatal(err)
				}
				for g := range last {
					last[g] = nil
				}
			case r < 4:
				sess += 20 * (1 + rng.Intn(3)) // jump to a later window
			default:
				sess += rng.Intn(2)
			}
			jobs := make([]sched.JobRequest, njobs)
			for i := range jobs {
				jobs[i] = sched.JobRequest{Instance: inst, Profile: prof, Requests: rng.Intn(120)}
			}
			ctx := func() *sched.SessionContext {
				return &sched.SessionContext{
					Session: sess, Start: simtime.Instant(time.Duration(sess) * 5 * time.Millisecond),
					GPU: rng.Intn(lanes), GPUShare: 0.05 + 0.95*rng.Float64(),
					Jobs: append([]sched.JobRequest(nil), jobs...),
				}
			}()
			got, err := s.PlanSession(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Session != sess {
				t.Fatalf("star=%v step %d: plan for session %d, want %d", star, step, got.Session, sess)
			}
			if got.Overhead == 0 {
				hits++
				if last[ctx.GPU] == nil || !reflect.DeepEqual(got.Jobs, last[ctx.GPU]) {
					t.Fatalf("star=%v step %d lane %d: replayed %+v, want the lane's last solve %+v",
						star, step, ctx.GPU, got.Jobs, last[ctx.GPU])
				}
				continue
			}
			solves++
			fresh := *ctx
			fresh.Jobs = append([]sched.JobRequest(nil), jobs...)
			want, err := NewScrooge(star).PlanSession(&fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("star=%v step %d lane %d: reused solve %+v, fresh %+v", star, step, ctx.GPU, got, want)
			}
			last[ctx.GPU] = copyJobPlans(got.Jobs)
		}
		if solves < 100 || hits < 100 {
			t.Fatalf("star=%v: %d solves and %d hits; the sequence does not exercise both", star, solves, hits)
		}
	}
}

// TestBaselinePlansWithMemoMatchNilCosts drives two instances of each
// baseline through one seeded sequence of sessions that vary the job
// count, requests, share, lane and window, with period starts in
// between. One instance plans jobs that carry a latency memo, the other
// the same jobs with nil Costs. Every plan must deep-equal, Nodes
// included: the memo skips work but never changes an answer.
func TestBaselinePlansWithMemoMatchNilCosts(t *testing.T) {
	inst, prof := fixture(t)
	cache := profile.NewLatencyCache(prof)
	for _, m := range []struct {
		name  string
		build func() sched.Method
	}{
		{"Ekya", func() sched.Method { return NewEkya() }},
		{"Scrooge", func() sched.Method { return NewScrooge(false) }},
		{"Scrooge*", func() sched.Method { return NewScrooge(true) }},
	} {
		memo, direct := m.build(), m.build()
		rng := rand.New(rand.NewSource(41))
		sess, planned := 0, 0
		for step := 0; step < 400; step++ {
			if rng.Intn(40) == 0 {
				for _, s := range []sched.Method{memo, direct} {
					if _, err := s.OnPeriodStart(periodCtx(t, inst, prof)); err != nil {
						t.Fatal(err)
					}
				}
			}
			sess += rng.Intn(8)
			jobs := make([]sched.JobRequest, 1+rng.Intn(4))
			for i := range jobs {
				jobs[i] = sched.JobRequest{Instance: inst, Profile: prof, Requests: rng.Intn(120)}
			}
			cached := append([]sched.JobRequest(nil), jobs...)
			for i := range cached {
				cached[i].Costs = cache
			}
			lane, share := rng.Intn(4), 0.05+0.95*rng.Float64()
			ctx := func(jobs []sched.JobRequest) *sched.SessionContext {
				return &sched.SessionContext{
					Session: sess, Start: simtime.Instant(time.Duration(sess) * 5 * time.Millisecond),
					GPU: lane, GPUShare: share, Jobs: jobs,
				}
			}
			got, err := memo.PlanSession(ctx(cached))
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.PlanSession(ctx(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s step %d: memo plan %+v, nil-Costs plan %+v", m.name, step, got, want)
			}
			for i := range got.Jobs {
				if len(got.Jobs[i].Nodes) > 0 {
					planned++
				}
			}
		}
		if planned == 0 {
			t.Fatalf("%s: no job was planned", m.name)
		}
	}
}

func TestScroogeStarProportionalScaling(t *testing.T) {
	inst, prof := fixture(t)
	inst2, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 8, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sched.JobRequest{
		{Instance: inst, Profile: prof, Requests: 64},
		{Instance: inst2, Profile: prof, Requests: 64},
	}
	// A tiny share forces the capacity constraint to bind.
	ctx := func() *sched.SessionContext {
		return &sched.SessionContext{GPUShare: 0.3, Jobs: append([]sched.JobRequest(nil), jobs...)}
	}
	star, err := NewScrooge(true).PlanSession(ctx())
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewScrooge(false).PlanSession(ctx())
	if err != nil {
		t.Fatal(err)
	}
	// Scrooge* scales both jobs down proportionally (identical demand →
	// identical grant); greedy Scrooge favours the first job.
	if star.Jobs[0].Fraction != star.Jobs[1].Fraction {
		t.Fatalf("Scrooge* fractions: %v vs %v", star.Jobs[0].Fraction, star.Jobs[1].Fraction)
	}
	if greedy.Jobs[0].Fraction < greedy.Jobs[1].Fraction {
		t.Fatalf("greedy Scrooge fractions: %v vs %v", greedy.Jobs[0].Fraction, greedy.Jobs[1].Fraction)
	}
}

// BenchmarkScroogePlanSessionLanes plans four lanes per 5 ms session,
// as a sharded server does, so each lane solves once per 100 ms window
// and replays its solve for the other 19 sessions. Like the serving
// runtime, it gives every job the profile's one latency memo.
func BenchmarkScroogePlanSessionLanes(b *testing.B) {
	inst, prof := fixture(b)
	const lanes = 4
	costs := profile.NewLatencyCache(prof)
	jobs := make([][]sched.JobRequest, lanes)
	for g := range jobs {
		jobs[g] = []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 8 << g, Costs: costs}}
	}
	s := NewScrooge(false)
	ctx := &sched.SessionContext{GPUShare: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Session = i
		ctx.Start = simtime.Instant(time.Duration(i) * 5 * time.Millisecond)
		for g := 0; g < lanes; g++ {
			ctx.GPU, ctx.Jobs = g, jobs[g]
			if _, err := s.PlanSession(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}
