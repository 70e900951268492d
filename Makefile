# Developer targets; `make check` is the pre-commit gate.
GO ?= go

.PHONY: build fmt test race vet bench benchtest loc check serve difftest faulttest e2e

build:
	$(GO) build ./...

# Formatting gate: any file gofmt would rewrite fails `make check`.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# The packages with concurrent hot paths: the sweep executor (core) and
# its find-relation runner's tests (harness), the metrics substrate,
# and the query service (admission + concurrent probes) —
# plus the refiner and the oracle harness, whose parallel cross-checks
# double as a race probe of the whole pipeline, and the resilience
# layer (snapshot loads race background rebuilds; the fault seam is
# armed from tests while workers run), and the trace ring buffer
# (concurrent span writers racing trace readers), and the sharded
# serving tier (scatter goroutines racing the breaker set and the
# round-robin replica cursors), and the WAL (group-commit leaders
# racing enqueuers, compaction-driven prunes, and health scrapes).
# One pass rarely lands a compaction's residual replay beside a
# concurrent read, so the epoch-swap load test repeats 30 times
# (≈ 15 s): it is the test that catches a replay writing to an object
# readers can already see.
race:
	$(GO) test -race ./internal/core/ ./internal/harness/ ./internal/obs/ ./internal/server/ ./internal/de9im/ ./internal/oracle/ ./internal/snapshot/ ./internal/fault/ ./internal/trace/ ./internal/shard/ ./internal/shard/router/ ./internal/wal/
	$(GO) test -race -count=30 -run TestEpochSwapConsistencyUnderLoad ./internal/server/

# Differential correctness run (see README "Correctness"): a fixed-seed
# sweep of generated lattice pairs through every production path,
# cross-checked against the independent brute-force oracle, plus the
# full shrunk-repro regression corpus. Bounded (~10s) so it can gate CI.
difftest:
	$(GO) test ./internal/oracle/ -count=1 -oracle.pairs=10000 -oracle.seed=1
	$(GO) test ./internal/server/ -count=1 -run 'TestMutationDifferentialOracle|TestMutationCrashReplayOracle'

# Fault-injection suite (see README "Resilience"): every injected
# corruption — torn header, truncated section, bit flip, ENOSPC
# mid-write, panic mid-rebuild, poisoned geometry pair — must end in
# quarantine + degraded serving + background recovery, never a process
# exit or a wrong answer.
faulttest:
	$(GO) test -count=1 ./internal/fault/ ./internal/snapshot/ ./internal/wal/ \
		./internal/server/ -run 'Fault|Corrupt|Truncat|Quarantine|Torn|BitFlip|Panic|Degraded|CrashRecovery|WarmStart|Hostile|ValidName|Retry|Circuit|Temporary|Backoff|Fsync|Floor|SilentlyAcks'
	$(GO) test -count=1 ./internal/harness/ -run 'PanicIsolated'

vet:
	$(GO) vet ./...

# Regression telemetry for the instrumented pipeline (see README
# "Observability"): BenchmarkObservedOverhead compares plain FindRelation
# with the timed, stats-keeping core.Sweeper every sweep evaluates pairs
# on, and BenchmarkTraceOverhead the disabled tracer with plain; each
# must stay within 5%. The ZeroAlloc guards pin the hot path — interval
# kernels, scratch refinement, the sweeper under every method and test
# (find, predicate, mask), the merged epoch view — to zero heap
# allocations per pair (see README "Performance"); the kernel pin runs a
# balanced and a skewed pair. BenchmarkKernels times the galloping
# kernels against the reference merge from balanced to skewed shapes.
bench:
	$(GO) test -count=1 -run 'ZeroAlloc|AllocFootprint' ./internal/interval/ ./internal/de9im/ ./internal/core/ ./internal/server/
	$(GO) test -run xxx -bench BenchmarkKernels -benchtime 200ms -benchmem ./internal/interval/
	$(GO) test -run xxx -bench 'BenchmarkObservedOverhead|BenchmarkTraceOverhead' -benchmem .
	$(GO) test -run xxx -bench BenchmarkRouterFanout -benchmem ./internal/shard/router/
	$(GO) test -run xxx -bench 'BenchmarkIngest|BenchmarkCompact' -benchmem ./internal/server/

# The end-to-end benchmark (bench/, see BENCHMARK.json) is a nested
# module that `go build ./...` and `go test ./...` skip, yet it compiles
# against internal names: vet and test it here so a refactor cannot
# silently break the benchmark's build.
benchtest:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Non-test Go lines per package (bench/ excluded): the ROADMAP's
# net-negative goal, visible in CI logs.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 awk 'FNR == 1 { d = FILENAME; sub("/[^/]*$$", "", d) } { loc[d]++; total++ } \
			END { for (d in loc) printf "%7d %s\n", loc[d], d; printf "%7d total\n", total }' | sort -k2

# Multi-process end-to-end smoke of the sharded serving tier (see
# README "Sharded serving"): builds real topojoind + topojoinrouter
# binaries, runs a 3-shard fleet (one shard replicated) against a
# single-node reference, then SIGKILLs a replica (answers must stay
# complete) and an unreplicated shard (response must be flagged
# partial, healthz degraded — never an error or hang). The ingest
# drill SIGKILLs a real topojoind mid-compaction (fault-delayed
# fsync, torn .tmp on disk) and asserts every restart resumes from
# the last complete index epoch. The WAL drill SIGKILLs a -wal daemon
# with acked-but-uncompacted mutations (they must replay), forces a
# torn append (must 503, never silently ack) and asserts the restart
# truncates the torn tail instead of resurrecting it.
e2e:
	$(GO) test -count=1 -timeout 300s ./cmd/topojoinrouter/ -run TestE2EShardedFleet -v
	$(GO) test -count=1 -timeout 300s ./cmd/topojoind/ -run 'TestE2EIngestCrashRecovery|TestE2EIngestWALCrashDrill' -v

# Run the topology query service over a small generated workload
# (see README "Serving").
serve:
	$(GO) run ./cmd/topojoind -gen OLE,OPE -scale 0.1

check: build fmt vet test race benchtest loc
