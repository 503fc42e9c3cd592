GO ?= go

# bench-save/bench-compare parameters: the committed baseline file and
# the scale factor it was measured at.
BENCH_BASELINE ?= BENCH_tpch.json
BENCH_SF ?= 0.01
# Runs per query; benchdiff compares the min, and min-over-15 is stable
# enough on a shared machine for the 2% regression gate below.
BENCH_COUNT ?= 15
BENCH_WARMUP ?= 2
# Regression gate for bench-compare in ci: fail when the TPC-H geomean
# time ratio new/old exceeds this (the delta-store machinery must cost
# nothing while deltas are empty — the hot path branches on one nil
# snapshot pointer).
BENCH_MAX_RATIO ?= 1.02
# Per-query gate: no single query may regress past this ratio, so a
# large aggregate win (e.g. the hybrid access path) cannot hide one
# query that the classifier got wrong.
BENCH_MAX_QUERY_RATIO ?= 1.05

# difftest-long parameters: wall-clock budget for the nightly
# randomized sweep (time-seeded; failures shrink to a JSON repro).
DIFFTEST_BUDGET ?= 60s

# crash target parameters: SIGKILL iterations for the subprocess
# crash-recovery harness (acceptance: 50/50 green).
CRASH_ITERS ?= 50

.PHONY: all build vet lint test race flake-check bench-check bench-smoke bench-save bench-compare bench-durable hybrid-ab ingest-ab approx-ab telemetry-race telemetry-smoke chaos crash iocheck difftest difftest-long hybrid-race loc ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is optional tooling: when it
# is not on PATH the target (and ci) skips it rather than failing, so a
# hermetic build environment stays green.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The two core tests that once failed about one run in three (a cost tie
# between join orders; admission timing on a small box), and the check
# that order selection's estimate ties do not flap across literal
# bindings: run each 20 times so a reintroduced flake shows up in ci
# rather than at random.
flake-check:
	$(GO) test -count=20 -run 'TestLazyTrieCacheInvalidationAcrossCompact|TestGovernorStress|TestNoPlanDriftAcrossLiterals' ./internal/core

# bench/ (the BENCHMARK.json benchmark) is its own module, so build,
# vet and test above never compile it: this is the check that a refactor
# has not broken the engine API the benchmark is pinned to.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# Short benchmark smoke: one pass over the TPC-H suite at the smallest
# scale plus the zero-allocation guards on the set-intersection,
# aggregation and scan inner loops — enough to notice a hot-path
# regression (or perf plumbing rot) without a full run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTableII_TPCH' -benchtime 1x .
	$(GO) test -run 'ZeroAllocs' -count=1 ./internal/set ./internal/exec

# Snapshot the TPC-H perf baseline into $(BENCH_BASELINE). Run on a
# quiet machine; commit the result so bench-compare has a reference.
bench-save:
	$(GO) run ./cmd/lhbench -suite tpch -sf $(BENCH_SF) -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json $(BENCH_BASELINE)

# Diff a fresh run against the committed baseline (benchstat-style
# geomean + per-query table, via the in-repo cmd/benchdiff).
bench-compare:
	$(GO) run ./cmd/lhbench -suite tpch -sf $(BENCH_SF) -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json /tmp/bench_current.json
	$(GO) run ./cmd/benchdiff -max-ratio $(BENCH_MAX_RATIO) -max-query-ratio $(BENCH_MAX_QUERY_RATIO) $(BENCH_BASELINE) /tmp/bench_current.json

# A/B the two access paths of the hybrid executor over the TPC-H suite:
# one run with every GHD node forced onto the binary hash-join chain,
# one forced onto pure WCOJ, diffed with benchdiff (no gate — this is a
# measurement tool, not a regression check). LH_FORCE_PATH is the same
# env override the chaos drills use.
hybrid-ab:
	LH_FORCE_PATH=wcoj $(GO) run ./cmd/lhbench -suite tpch -sf $(BENCH_SF) -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json /tmp/bench_wcoj.json
	LH_FORCE_PATH=binary $(GO) run ./cmd/lhbench -suite tpch -sf $(BENCH_SF) -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json /tmp/bench_binary.json
	$(GO) run ./cmd/benchdiff /tmp/bench_wcoj.json /tmp/bench_binary.json

# A/B the WAL sync policies on TPC-H lineitem ingest (in-memory vs
# no-fsync vs group commit vs fsync-per-batch). A measurement tool, not
# a gate; the results annotate $(BENCH_BASELINE) as "_ingest/<policy>"
# records, which benchdiff skips.
ingest-ab:
	$(GO) run ./cmd/lhbench -suite ingest-ab -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json /tmp/bench_ingest_ab.json

# A/B the approximate query tier against exact execution on TPC-H-style
# count-distinct / filtered-aggregate queries (speedup,
# chosen route, observed error vs the advertised bound — the run fails
# if an observed error ever exceeds its bound). A measurement tool, not
# a perf gate; the results annotate $(BENCH_BASELINE) as
# "_approx/<name>" records, which benchdiff skips.
approx-ab:
	$(GO) run ./cmd/lhbench -suite approx-ab -sf $(BENCH_SF) -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json /tmp/bench_approx_ab.json

# Durable read-path gate: the full TPC-H suite with every engine running
# on a WAL + snapshot directory at the lhserve default sync policy
# (group commit), diffed against the in-memory baseline under the same
# ratio gates — durability must not tax the query path.
bench-durable:
	$(GO) run ./cmd/lhbench -suite tpch -sync group -sf $(BENCH_SF) -count $(BENCH_COUNT) -warmup $(BENCH_WARMUP) -json /tmp/bench_durable.json
	$(GO) run ./cmd/benchdiff -max-ratio $(BENCH_MAX_RATIO) -max-query-ratio $(BENCH_MAX_QUERY_RATIO) $(BENCH_BASELINE) /tmp/bench_durable.json

# Focused race check on the lock-free telemetry paths (histogram
# recording, span buffers, registry) and their integration points.
telemetry-race:
	$(GO) test -race -count=1 ./internal/obs/... .

# Debug-server smoke: boot lhserve on a random port, run the query mix,
# and scrape /metrics and a trace dump through the real listener.
telemetry-smoke:
	$(GO) run ./cmd/lhserve -gen matrix -la 0.05 -http 127.0.0.1:0 -smoke

# Resource-governance gauntlet: fault-injected panics in exec/trie/set
# must fail only the query that hit them, over-budget queries abort
# with ResourceExhausted, overload sheds with Retry-After, and the
# governor/registry accounting drains to zero — all under -race — plus
# a short front-end fuzz (malformed SQL must never panic), short fuzzes
# of the snapshot section decoders and the WAL segment parser (never
# panic, never allocate past their input), and the approx lane under
# -race (the sample route runs exec's scan beside the summary lock).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestOverload|TestGovernorStress|TestEngineShutdown|TestSkewed' ./internal/core
	$(GO) test -race -count=1 ./internal/governor ./internal/faultinject
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzSnapshotLoad -fuzztime 5s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/wal
	$(GO) test -race -count=1 -run 'TestDurable|TestIngestBatch|TestCrashRecoverySIGKILL' ./internal/core
	$(GO) test -race -count=1 ./internal/wal ./internal/snapshot
	$(GO) test -count=1 -run TestDifferentialShort ./internal/difftest -difftest.lane recovery
	$(GO) test -race -count=1 -run TestDifferentialShort ./internal/difftest -difftest.lane approx

# SIGKILL crash-recovery gauntlet: the test binary re-execs itself as
# an ingesting child, kills it mid-ingest (including mid-compaction and
# with faultinject-widened WAL write/sync windows), recovers the data
# directory and checks that every acked row survived as an exact
# prefix. CRASH_ITERS=50 by default.
crash:
	LH_CRASH_ITERS=$(CRASH_ITERS) $(GO) test -count=1 -run TestCrashRecoverySIGKILL ./internal/core

# errcheck-style audit of the durability code: every error-returning
# io/os call in internal/wal and internal/snapshot must be consumed
# (an ignored short write or fsync error is a durability hole).
iocheck:
	$(GO) run ./cmd/iocheck ./internal/wal ./internal/snapshot

# Differential & metamorphic correctness harness (internal/difftest):
# a short, seeded, deterministic run of >=500 generated query/dataset
# pairs across the brute-force reference evaluator, the pairwise BLAS
# kernels, metamorphic identities (count partition, permutation
# invariance, aggregate re-association) and the dictionary invariant
# lane. A failure prints the shrunken JSON repro path; replay it with
# `go run ./cmd/lhfuzz -replay <file>`.
difftest:
	$(GO) test -count=1 -run TestDifferentialShort ./internal/difftest

# Nightly: time-budgeted randomized sweep with a fresh seed each run
# (set DIFFTEST_BUDGET to taste). Same shrink-to-JSON failure mode.
difftest-long:
	$(GO) test -count=1 -run TestDifferentialLong -timeout 0 \
		./internal/difftest -difftest.duration $(DIFFTEST_BUDGET)

# The hybrid lane alone under the race detector: forced-WCOJ vs
# forced-binary vs cost-based over shared lazily materializing tries is
# the executor's one concurrent seam; so is deriving filtered tries from
# one cached base order in many queries at once, each with its own tail
# of appended rows (the ingest lane runs every stage twice, the second
# run deriving). The compiled leaf's bit-identity check runs here too,
# at 1 and 4 threads, and so do concurrent appends, snapshots and
# compactions extending one set of shared column arrays.
hybrid-race:
	$(GO) test -race -count=1 -run TestDifferentialShort ./internal/difftest -difftest.lane hybrid
	$(GO) test -race -count=1 -run TestDifferentialShort ./internal/difftest -difftest.lane ingest
	$(GO) test -race -count=1 -run 'TestDeriveConcurrent|TestDeriveParallelRegions|TestConcurrentDerive|TestConcurrentAppendDerive|TestLeafKernelBitIdentical|TestConcurrentAppendSnapshotCompact' ./internal/trie ./internal/exec ./internal/storage

# Non-blank, non-comment lines of non-test Go in the packages the
# "one executor" and "one scalar evaluator" work is held to (ROADMAP
# aim 2: net-negative LOC is a result to report).
loc:
	@find internal/exec internal/core internal/approx internal/trie internal/sketch internal/expr -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -vE '^\s*(//|$$)' | wc -l

ci: vet lint build race flake-check bench-check iocheck bench-smoke telemetry-race telemetry-smoke chaos crash difftest hybrid-race bench-compare

clean:
	$(GO) clean ./...
