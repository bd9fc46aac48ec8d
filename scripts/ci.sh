#!/usr/bin/env bash
# Local CI entry point; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# The latency-probe memo has one owner: serving.Run builds one per
# profile and hands it to every method on JobRequest.Costs. A method
# or tool building its own would split the memo again.
echo "== one latency-memo owner =="
owners=$(grep -rl --include='*.go' --exclude='*_test.go' 'profile\.NewLatencyCache' internal cmd examples |
    grep -v -e '^internal/serving/' -e '^internal/profile/' || true)
if [ -n "$owners" ]; then
    echo "profile.NewLatencyCache called outside internal/serving:" >&2
    echo "$owners" >&2
    exit 1
fi

# Every function under internal/ must be linked by some program
# (cmd/*, examples/*, the bench binary or its test binary), or named
# with a reason in the checker's allowlist. The check builds with
# inlining off and reads the binaries' symbols, so it follows calls,
# not text matches. Its settings pass also requires every exported
# field of an internal/ *Config, *Options, *Params or *Spec struct to
# be set by some program outside its package, or allowlisted with a
# reason.
echo "== reachable internal code =="
go run ./scripts/deadcode

# The internal packages run under a coverage floor: the threshold is
# recorded below the 83.7% measured when the gate landed, so honest
# refactoring has headroom but a suite losing tests fails loudly.
echo "== go test (coverage-gated over internal/...) =="
go test -coverprofile="$tmpdir/cover.out" ./internal/...
go test ./cmd/... ./examples/...
cover_min=80.0
total=$(go tool cover -func="$tmpdir/cover.out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "internal coverage: ${total}% (floor ${cover_min}%)"
if ! awk -v t="$total" -v m="$cover_min" 'BEGIN { exit !(t+0 >= m+0) }'; then
    echo "coverage ${total}% fell below the recorded ${cover_min}% threshold" >&2
    exit 1
fi

# Every example program must stay a buildable, vet-clean main package
# (go build ./... compiles them as packages; -o forces linking too).
echo "== examples =="
go vet ./examples/...
for d in examples/*/; do
    go build -o /dev/null "./$d"
done

# The race detector covers the concurrent pieces: the experiment
# worker pool, the shared profile cache, the parallel offline
# profiler, the serving runs the experiment pool executes side by
# side, each consuming scheduler plans (also under fault injection),
# the discrete-event engine the bench module still measures, the fault
# injector's pure-hash decisions, the cluster placer behind sharded
# lanes, the admission gate that sheds load after lane crashes, the
# memory manager and auditor those runs exercise, the period
# boundary's recycled sample pools and drift buffers, and the worker
# pool the profiler and the drift probe share. -short skips the
# multi-minute determinism sweeps; the full suite above already runs
# them race-free.
echo "== go test -race (experiments, serving, faults, profile, eventsim, core, sched, gpumem, audit, cluster, admit, drift, app, synthdata, par) =="
go test -race -short ./internal/experiments/... ./internal/serving/... ./internal/faults/... ./internal/profile/... ./internal/eventsim/... ./internal/core/... ./internal/sched/... ./internal/gpumem/... ./internal/audit/... ./internal/cluster/... ./internal/admit/... ./internal/drift/... ./internal/app/... ./internal/synthdata/... ./internal/par/...

# The profiler's work-unit pool runs in every build (one worker per
# CPU), so its staged merge gets repeated race runs of its own.
echo "== profiler pool race =="
go test -race -count=10 -run 'TestParallelBuildBitIdentity$' ./internal/profile

# AdaInf's period-start drift probe runs every app's nodes on one
# worker per CPU against per-node memoised PCA fits, so it gets
# repeated race runs of its own too.
echo "== drift probe race =="
go test -race -count=10 -run 'TestPeriodStartDetectionMatchesFresh$' ./internal/core

# The serving loop runs its arrival filler and prediction scorer on
# goroutines of their own, so the pinned single-GPU runs and the
# pipeline's error-path and overflow tests get repeated race runs too.
# (TestServingGoldens lives in internal/experiments, where one race run
# takes minutes; the full suite above runs it race-free.)
echo "== serving pipeline race =="
go test -race -count=5 -run 'TestPinnedSingleGPU$|TestPipelineStopsOnMethodError$|TestRunRejectsArrivalsBeyondInt32$' ./internal/serving

# Fuzz smoke: a few seconds per target catches regressions in the
# properties the fuzz corpora pin (regression-fit robustness, profile
# cache-key identity, fault-schedule decode/encode round trips, the
# bin-packing invariants of the placer and its failover re-pack, the
# drift probe's top-k ranking against a full stable sort, serving.Run
# rejecting bad configs and finishing good ones audit-clean, the
# GPU-memory eviction index matching a full sort under any stream of
# acquires, releases, clock steps, end-of-job releases of two apps and
# resets, the latency memo answering every probe as the profile
# table does, a profile-cache entry of arbitrary bytes either
# missing or loading a profile that answers every probe without a
# panic, and lazily drawn feature vectors matching eager draws bit for
# bit without moving any class draw).
# One target per invocation, as go test requires.
echo "== fuzz smoke =="
go test -run='^$' -fuzz=FuzzFitScaling -fuzztime=5s ./internal/mathx
go test -run='^$' -fuzz=FuzzCacheKey -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz=FuzzFaultPlan -fuzztime=5s ./internal/faults
go test -run='^$' -fuzz=FuzzPlace -fuzztime=5s ./internal/cluster
go test -run='^$' -fuzz=FuzzReplace -fuzztime=5s ./internal/cluster
go test -run='^$' -fuzz=FuzzDetectNodeRanking -fuzztime=5s ./internal/drift
go test -run='^$' -fuzz=FuzzConfig -fuzztime=5s ./internal/serving
go test -run='^$' -fuzz=FuzzEvictionIndex -fuzztime=5s ./internal/gpumem
go test -run='^$' -fuzz=FuzzLatencyCache -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz=FuzzLoadCached -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz=FuzzLazyFeatures -fuzztime=5s ./internal/synthdata

# Microbenchmark smoke: one iteration each of the GPU-memory eviction
# loop, a serial profile build under /M1 and under AdaInf's memory
# configuration (between them, both kinds of request group the
# executor's layer loop runs), a latency-memo hit, Scrooge
# planning four lanes, drift detection over the catalog's 8000-sample
# pools (fresh, and warm over advancing periods), one period boundary
# resampling those pools and one 50 s single-app serving run each of
# AdaInf, Ekya and Scrooge, so all of
# them keep compiling and running and every method's session path
# reports its allocations. There is no timing gate, since wall time on
# shared machines is noise (compare with -count and benchstat on one
# machine instead).
echo "== microbenchmark smoke =="
go test -run '^$' -bench BenchmarkAcquirePerRequest -benchtime 1x ./internal/gpumem
go test -run '^$' -bench BenchmarkBuildAppProfileM1 -benchtime 1x ./internal/profile
go test -run '^$' -bench BenchmarkBuildAppProfileAda -benchtime 1x ./internal/profile
go test -run '^$' -bench BenchmarkLatencyCacheHit -benchtime 1x ./internal/profile
go test -run '^$' -bench BenchmarkScroogePlanSessionLanes -benchtime 1x ./internal/baselines
go test -run '^$' -bench BenchmarkDetectApp -benchtime 1x ./internal/drift
go test -run '^$' -bench BenchmarkAdvancePeriod -benchtime 1x ./internal/app
go test -run '^$' -bench BenchmarkRun -benchtime 1x ./internal/serving

# Telemetry smoke: the no-op collector must stay allocation-free on
# the serving hot path, and a traced run must emit a schema-valid
# JSONL trace that converts to a Chrome trace. The goldens test in the
# suite above already pins that metrics are byte-identical with
# telemetry off (and the serving metamorphic test pins on == off).
echo "== telemetry smoke =="
go test -run 'TestNoopZeroAlloc' ./internal/telemetry
tracedir="$tmpdir/trace"
mkdir -p "$tracedir"
go run ./cmd/repro -quick -horizon 100s -rate 80 -trace "$tracedir" -hist fig18 >/dev/null
go run ./cmd/tracecheck -q "$tracedir"/fig18-*.jsonl
first=$(ls "$tracedir"/fig18-*.jsonl | head -1)
go run ./cmd/tracecheck -q -chrome "$tracedir/smoke.chrome.json" "$first"

# Sharded smoke: one quick artifact on two GPU lanes under the
# fail-fast auditor (placement rule included), plus the CLI flag
# validators' own tests. The scaling artifact's full 1/2/4-lane sweep
# and the NGPUs=1 golden byte-identity run in the suite above.
echo "== multi-GPU smoke =="
go test ./internal/cliflags/
go run ./cmd/repro -quick -horizon 100s -rate 80 -audit -gpus 2 fig18 >/dev/null

# Failover smoke: two lanes with a certain crash at the first period
# boundary, under the fail-fast auditor — the crash, the re-pack onto
# the survivor, and the admission gate all run audited end to end.
echo "== failover smoke =="
go run ./cmd/repro -quick -horizon 100s -rate 80 -audit -gpus 2 \
    -faults 'gpu-crash=1,gpu-crash-max=1,gpu-crash-after=1' -fault-seed 5 fig18 >/dev/null

# Benchmark module tests: the bench/ module's transparency self-test
# and unit tests. Wall-clock gates are deliberately absent: identical
# runs swing by tens of percent on shared machines, so a wall-time
# threshold fails on noise; performance is compared with
# bash bench/run.sh -compare over repeated runs instead.
echo "== bench module tests =="
(cd bench && go test .)

echo "CI OK"
