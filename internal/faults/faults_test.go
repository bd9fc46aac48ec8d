package faults

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"adainf/internal/simtime"
)

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config enabled")
	}
	if (&Config{Seed: 42}).Enabled() {
		t.Error("seed-only config enabled")
	}
	if !(&Config{MemFail: 0.1}).Enabled() {
		t.Error("mem-fail config not enabled")
	}
	if New(&Config{}) != nil {
		t.Error("New returned an injector for a disabled config")
	}
	if New(&Config{Burst: 0.5}) == nil {
		t.Error("New returned nil for an enabled config")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []Config{
		{},
		Default(),
		{RetrainFail: 0.3, RetrainSlow: 0.25, RetrainSlowFactor: 1.5,
			MaxRetries: 4, RetryBackoff: simtime.Duration(500 * time.Millisecond)},
		{MemFail: 0.08},
		{Burst: 0.5, BurstFactor: 5, BurstSessions: 50},
		{DriftSpike: 0.4, SpikeIntensity: 0.9},
		{GPUCrash: 0.5, GPURecover: 0.25, GPUCrashAfter: 3, GPUCrashMax: 2},
		{GPUCrash: 1},
	}
	for _, c := range cases {
		got, err := Parse(c.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", c.String(), err)
			continue
		}
		if got != c {
			t.Errorf("round trip of %q: got %+v want %+v", c.String(), got, c)
		}
	}
	if c, err := Parse("default"); err != nil || c != Default() {
		t.Errorf(`Parse("default") = %+v, %v; want Default()`, c, err)
	}
	if c, err := Parse("  "); err != nil || c != (Config{}) {
		t.Errorf("Parse(blank) = %+v, %v; want zero config", c, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"retrain-fail",        // not key=value
		"no-such-key=1",       // unknown key
		"retrain-fail=1.5",    // probability out of range
		"mem-fail=-0.1",       // negative probability
		"retries=-1",          // negative retries
		"slow-factor=0.5",     // < 1
		"backoff=-2s",         // negative backoff
		"backoff=xyz",         // unparsable duration
		"burst-factor=-3",     // negative factor
		"burst-factor=1001",   // above MaxBurstFactor
		"spike-intensity=1.5", // out of [0,1]
		"gpu-crash=1.5",       // probability out of range
		"gpu-recover=-0.1",    // negative probability
		"gpu-crash-after=-1",  // negative period
		"gpu-crash-after=x",   // unparsable int
		"gpu-crash-max=-2",    // negative cap
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestRetrainFate checks the whole-pool fate machinery's contract over
// randomized parameters: the attempt list is bounded by the retry
// budget, chronological, and consistent with the outcome; retried jobs
// never complete past the retraining window; zero-busy jobs pass
// through untouched; and every fate is a pure function of its inputs.
func TestRetrainFate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		cfg := Config{
			Seed:        rng.Int63(),
			RetrainFail: rng.Float64(),
			RetrainSlow: rng.Float64(),
			MaxRetries:  rng.Intn(4),
		}
		in := New(&cfg)
		if in == nil {
			t.Fatal("injector nil")
		}
		eff := in.Config()
		busy := time.Duration(1+rng.Intn(20)) * time.Second
		completion := simtime.Instant(0).Add(busy)
		windowEnd := completion.Add(time.Duration(rng.Intn(60)) * time.Second)

		f := in.RetrainFate(rng.Intn(10), rng.Intn(8), "app", "node", completion, busy, windowEnd)
		g := in.RetrainFate(0, 0, "app", "node", completion, busy, windowEnd)
		_ = g // distinct coordinates may differ; determinism checked below

		if len(f.Attempts) == 0 {
			t.Fatalf("trial %d: no attempts recorded", trial)
		}
		if len(f.Attempts) > eff.MaxRetries+1 {
			t.Fatalf("trial %d: %d attempts > budget %d", trial, len(f.Attempts), eff.MaxRetries+1)
		}
		for i, a := range f.Attempts {
			if a.Completion.Before(a.Start) {
				t.Fatalf("trial %d attempt %d: completion before start", trial, i)
			}
			if i > 0 && a.Start.Before(f.Attempts[i-1].Completion) {
				t.Fatalf("trial %d attempt %d: overlaps previous attempt", trial, i)
			}
			if last := i == len(f.Attempts)-1; a.Failed != (f.Abandoned || !last) {
				t.Fatalf("trial %d attempt %d: failed=%v inconsistent with outcome", trial, i, a.Failed)
			}
		}
		if !f.Abandoned {
			if f.Completion != f.Attempts[len(f.Attempts)-1].Completion {
				t.Fatalf("trial %d: completion != last attempt's", trial)
			}
			if len(f.Attempts) > 1 && f.Completion.After(windowEnd) {
				t.Fatalf("trial %d: retried job completed %v past window end %v",
					trial, f.Completion, windowEnd)
			}
			if f.Slowed && f.Busy <= busy {
				t.Fatalf("trial %d: slowed job not stretched", trial)
			}
		}

		again := in.RetrainFate(rng2coords(trial), 0, "app", "node", completion, busy, windowEnd)
		once := in.RetrainFate(rng2coords(trial), 0, "app", "node", completion, busy, windowEnd)
		if len(again.Attempts) != len(once.Attempts) || again.Completion != once.Completion ||
			again.Abandoned != once.Abandoned || again.Slowed != once.Slowed {
			t.Fatalf("trial %d: fate not deterministic", trial)
		}

		if zb := in.RetrainFate(1, 1, "app", "node", completion, 0, windowEnd); len(zb.Attempts) != 0 ||
			zb.Completion != completion || zb.Abandoned || zb.Slowed {
			t.Fatalf("trial %d: zero-busy job perturbed: %+v", trial, zb)
		}
	}
}

// rng2coords derives a stable period coordinate for the determinism
// probe without consuming the trial RNG.
func rng2coords(trial int) int { return trial % 7 }

// TestSessionWord checks the per-session fault decisions a work
// session draws, its "word": every decision is a pure function of its
// coordinates, so replaying the sessions in reverse order reproduces
// them; an incremental slice that fails is never also slowed; and a
// long sweep sees every decision both ways.
func TestSessionWord(t *testing.T) {
	cfg := Default()
	cfg.Seed = 3
	in := New(&cfg)
	nodes := []string{"det", "cls", "seg"}
	type word struct {
		mem        bool
		fail, slow [3]bool
	}
	draw := func(si int) word {
		var w word
		w.mem = in.MemFail(si, "app", 0)
		for j, node := range nodes {
			w.fail[j], w.slow[j] = in.IncrementalRetrain(si, "app", node)
		}
		return w
	}
	const n = 500
	words := make([]word, n)
	var mem, fail, slow int
	for si := 0; si < n; si++ {
		w := draw(si)
		words[si] = w
		if w.mem {
			mem++
		}
		for j := range nodes {
			if w.fail[j] && w.slow[j] {
				t.Fatalf("session %d node %s: incremental slice both failed and slowed", si, nodes[j])
			}
			if w.fail[j] {
				fail++
			}
			if w.slow[j] {
				slow++
			}
		}
	}
	for si := n - 1; si >= 0; si-- {
		if w := draw(si); w != words[si] {
			t.Fatalf("session %d: decisions %+v on replay, %+v first", si, w, words[si])
		}
	}
	for _, c := range []struct {
		name         string
		fired, rolls int
	}{{"MemFail", mem, n}, {"incremental fail", fail, n * len(nodes)}, {"incremental slow", slow, n * len(nodes)}} {
		if c.fired == 0 || c.fired == c.rolls {
			t.Errorf("%s fired %d of %d times; want both outcomes", c.name, c.fired, c.rolls)
		}
	}
}

// TestSessionWordGPU freezes the per-session fault decisions against
// future hash edits: a table of (session, app, lane) → word recorded
// when the per-lane memory roll was introduced. Bit 0 of a
// word is MemFail on the lane; bits 1+2j and 2+2j are the incremental
// fail and slow decisions of node j, which take no lane because they
// are properties of the model, not the device. Lane 0 carries every
// single-GPU fault schedule, so a change there silently rewrites every
// faulted NGPUs=1 run. Beyond the table, other lanes must roll the
// memory fault per lane.
func TestSessionWordGPU(t *testing.T) {
	cfg := Config{Seed: 3, MemFail: 0.5, RetrainFail: 0.3, RetrainSlow: 0.3}
	in := New(&cfg)
	nodes := []string{"det", "cls"}
	bit := func(w uint64, i int) bool { return w&(1<<uint(i)) != 0 }
	for _, c := range []struct {
		si   int
		app  string
		lane int
		word uint64
	}{
		{0, "app", 0, 0b11}, {0, "app", 1, 0b11}, {0, "app", 2, 0b11},
		{1, "app", 0, 0b101}, {1, "app", 1, 0b100}, {1, "app", 2, 0b101},
		{7, "app", 0, 0b1010}, {7, "app", 1, 0b1010}, {7, "app", 2, 0b1011},
		{42, "app", 0, 0b1000}, {42, "app", 1, 0b1000}, {42, "app", 2, 0b1001},
		{311, "app", 0, 0b10000}, {311, "app", 1, 0b10000}, {311, "app", 2, 0b10001},
		{4999, "app", 0, 0b1101}, {4999, "app", 1, 0b1101}, {4999, "app", 2, 0b1101},
		{0, "cam", 0, 0b0}, {0, "cam", 1, 0b0}, {0, "cam", 2, 0b1},
		{1, "cam", 0, 0b1011}, {1, "cam", 1, 0b1010}, {1, "cam", 2, 0b1011},
		{7, "cam", 0, 0b100}, {7, "cam", 1, 0b101}, {7, "cam", 2, 0b101},
		{42, "cam", 0, 0b11}, {42, "cam", 1, 0b11}, {42, "cam", 2, 0b11},
		{311, "cam", 0, 0b10000}, {311, "cam", 1, 0b10001}, {311, "cam", 2, 0b10000},
		{4999, "cam", 0, 0b0}, {4999, "cam", 1, 0b1}, {4999, "cam", 2, 0b0},
	} {
		if got, want := in.MemFail(c.si, c.app, c.lane), bit(c.word, 0); got != want {
			t.Errorf("session %d app %s lane %d: MemFail %v, recorded %v", c.si, c.app, c.lane, got, want)
		}
		for j, node := range nodes {
			fail, slow := in.IncrementalRetrain(c.si, c.app, node)
			if wantFail, wantSlow := bit(c.word, 1+2*j), bit(c.word, 2+2*j); fail != wantFail || slow != wantSlow {
				t.Errorf("session %d app %s node %s: fail/slow %v/%v, recorded %v/%v",
					c.si, c.app, node, fail, slow, wantFail, wantSlow)
			}
		}
	}

	diff := 0
	for si := 0; si < 500; si++ {
		base := in.MemFail(si, "app", 0)
		for g := 1; g < 4; g++ {
			m := in.MemFail(si, "app", g)
			if m != in.MemFail(si, "app", g) {
				t.Fatalf("session %d lane %d: memory fault not deterministic", si, g)
			}
			if m != base {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("500 sessions × 3 lanes never disagreed with lane 0 on the memory fault")
	}
}

// TestBurstFor asserts burst windows stay inside the period and rolls
// are deterministic; a long enough sweep must see both outcomes.
func TestBurstFor(t *testing.T) {
	cfg := Config{Seed: 9, Burst: 0.4, BurstSessions: 50, BurstFactor: 4}
	in := New(&cfg)
	const sessions = 120
	hits, misses := 0, 0
	for p := 0; p < 200; p++ {
		b, ok := in.BurstFor(p, "app", sessions)
		b2, ok2 := in.BurstFor(p, "app", sessions)
		if ok != ok2 || b != b2 {
			t.Fatalf("period %d: burst roll not deterministic", p)
		}
		if !ok {
			misses++
			continue
		}
		hits++
		if b.Start < 0 || b.End > sessions || b.End-b.Start != 50 || b.Factor != 4 {
			t.Fatalf("period %d: malformed burst %+v", p, b)
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("burst p=0.4 over 200 periods: %d hits, %d misses", hits, misses)
	}
	// Windows clamp to short periods.
	if b, ok := in.BurstFor(3, "other", 10); ok && (b.Start != 0 || b.End != 10) {
		t.Errorf("short period: window %+v not clamped", b)
	}
	if _, ok := in.BurstFor(0, "app", 0); ok {
		t.Error("burst fired on an empty period")
	}
}

// TestDriftSpike asserts spike rolls are deterministic, the derived
// seed is non-negative, and distinct (period, app) coordinates decouple.
func TestDriftSpike(t *testing.T) {
	cfg := Config{Seed: 13, DriftSpike: 0.5, SpikeIntensity: 0.7}
	in := New(&cfg)
	hits := 0
	seeds := map[int64]bool{}
	for p := 0; p < 100; p++ {
		seed, intensity, ok := in.DriftSpike(p, "app")
		seed2, intensity2, ok2 := in.DriftSpike(p, "app")
		if ok != ok2 || seed != seed2 || intensity != intensity2 {
			t.Fatalf("period %d: spike roll not deterministic", p)
		}
		if !ok {
			continue
		}
		hits++
		if seed < 0 {
			t.Fatalf("period %d: negative spike seed %d", p, seed)
		}
		if intensity != 0.7 {
			t.Fatalf("period %d: intensity %g != configured 0.7", p, intensity)
		}
		seeds[seed] = true
	}
	if hits == 0 {
		t.Fatal("spike p=0.5 over 100 periods never fired")
	}
	if len(seeds) < 2 && hits >= 2 {
		t.Error("every spike derived the same seed; coordinates may be ignored")
	}
}

// TestSeedIndependence asserts the injector seed participates in every
// decision family: two seeds must disagree somewhere in a short sweep.
func TestSeedIndependence(t *testing.T) {
	mk := func(seed int64) *Injector {
		cfg := Default()
		cfg.Seed = seed
		return New(&cfg)
	}
	a, b := mk(1), mk(2)
	same := true
	for si := 0; si < 200 && same; si++ {
		failA, slowA := a.IncrementalRetrain(si, "app", "n")
		failB, slowB := b.IncrementalRetrain(si, "app", "n")
		if a.MemFail(si, "app", 0) != b.MemFail(si, "app", 0) || failA != failB || slowA != slowB {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 agree on 200 sessions' fault decisions; seed may be ignored")
	}
}

// TestLaneEvents asserts the lane-liveness evolution's contract:
// boundary replays are bit-identical, a crash never kills the last
// alive lane, the dead count never exceeds gpu-crash-max, events fire
// in lane order, single-lane servers never roll, and with recovery at
// certainty a dead lane always comes back before the crash pass.
func TestLaneEvents(t *testing.T) {
	cfg := Config{Seed: 5, GPUCrash: 1}
	in := New(&cfg)
	if in.Config().GPUCrashAfter != 1 {
		t.Fatalf("gpu-crash-after defaulted to %d, want 1", in.Config().GPUCrashAfter)
	}
	// Certain crashes with no cap: everything but one lane dies at the
	// first eligible boundary, and the survivor holds forever.
	alive, crashed, recovered := in.LaneEvents(1, 4, 0b1111)
	if len(recovered) != 0 || len(crashed) != 3 || alive == 0 {
		t.Fatalf("period 1: alive=%b crashed=%v recovered=%v", alive, crashed, recovered)
	}
	for i := 1; i < len(crashed); i++ {
		if crashed[i] <= crashed[i-1] {
			t.Fatalf("crashes out of lane order: %v", crashed)
		}
	}
	a2, c2, r2 := in.LaneEvents(1, 4, 0b1111)
	if a2 != alive || len(c2) != len(crashed) || r2 != nil {
		t.Fatal("boundary replay diverged")
	}
	if a3, c3, _ := in.LaneEvents(2, 4, alive); a3 != alive || c3 != nil {
		t.Fatalf("last alive lane crashed: alive=%b crashed=%v", a3, c3)
	}
	// Before gpu-crash-after nothing fires.
	if a, c, r := in.LaneEvents(0, 4, 0b1111); a != 0b1111 || c != nil || r != nil {
		t.Fatalf("period 0 fired: alive=%b crashed=%v recovered=%v", a, c, r)
	}
	// A single lane never rolls.
	if a, c, r := in.LaneEvents(5, 1, 0b1); a != 0b1 || c != nil || r != nil {
		t.Fatal("single-lane server rolled a crash")
	}

	// gpu-crash-max caps the simultaneously dead count.
	capped := Config{Seed: 5, GPUCrash: 1, GPUCrashMax: 2}
	inc := New(&capped)
	alive, crashed, _ = inc.LaneEvents(1, 4, 0b1111)
	if len(crashed) != 2 {
		t.Fatalf("cap 2: %d lanes crashed (%v)", len(crashed), crashed)
	}
	if a, c, _ := inc.LaneEvents(2, 4, alive); len(c) != 0 || a != alive {
		t.Fatalf("cap 2 exceeded at next boundary: crashed %v", c)
	}

	// Certain recovery: dead lanes return before the crash pass rolls.
	rec := Config{Seed: 5, GPUCrash: 1, GPURecover: 1, GPUCrashMax: 1}
	inr := New(&rec)
	alive, crashed, _ = inr.LaneEvents(1, 2, 0b11)
	if len(crashed) != 1 {
		t.Fatalf("first boundary: crashed %v", crashed)
	}
	deadLane := crashed[0]
	_, _, recovered = inr.LaneEvents(2, 2, alive)
	if len(recovered) != 1 || recovered[0] != deadLane {
		t.Fatalf("dead lane %d did not recover: recovered=%v", deadLane, recovered)
	}
}

func TestStringOmitsZeroFields(t *testing.T) {
	s := (Config{MemFail: 0.1}).String()
	if s != "mem-fail=0.1" {
		t.Errorf("String() = %q, want only the set field", s)
	}
	if strings.Contains((Config{Seed: 42}).String(), "42") {
		t.Error("String() leaked the seed; seeds travel separately (-fault-seed)")
	}
}
