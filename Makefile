GO ?= go

# difftest-long parameters: wall-clock budget for the nightly
# randomized sweep (time-seeded; failures shrink to a JSON repro).
DIFFTEST_BUDGET ?= 60s

# crash target parameters: SIGKILL iterations for the subprocess
# crash-recovery harness (acceptance: 50/50 green).
CRASH_ITERS ?= 50

.PHONY: all build vet lint test race flake-check bench-check bench-smoke telemetry-race telemetry-smoke chaos crash iocheck difftest difftest-long hybrid-race loc ci clean

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
# aggregation and scan inner loops and the scan fold's bit-identity
# guard — enough to notice a hot-path regression (or perf plumbing rot)
# without a full run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTableII_TPCH' -benchtime 1x .
	$(GO) test -run 'ZeroAllocs' -count=1 ./internal/set
	$(GO) test -run 'ZeroAllocs|BitIdentical' -count=1 ./internal/exec

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
# the executor's one concurrent seam, and one cached trie serves both
# paths, so a WCOJ compile converts its levels to sets while binary
# queries rank and read runs on it (TestSharedTrieConcurrentPaths); so
# is deriving filtered tries from one cached base order in many queries
# at once, each with its own tail of appended rows (the ingest lane runs
# every stage twice, the second run deriving). The compiled leaf's
# bit-identity check runs here too, at 1 and 4 threads, and so do
# concurrent appends, snapshots and compactions extending one set of
# shared column arrays. So do the semijoin reduction's checks: reduced
# and unreduced runs bit-identical at 1, 2 and 7 threads on every path,
# and reduced queries run at once over one trie cache.
hybrid-race:
	$(GO) test -race -count=1 -run TestDifferentialShort ./internal/difftest -difftest.lane hybrid
	$(GO) test -race -count=1 -run TestDifferentialShort ./internal/difftest -difftest.lane ingest
	$(GO) test -race -count=1 -run 'TestSemijoin|TestDeriveConcurrent|TestDeriveParallelRegions|TestConcurrentDerive|TestConcurrentAppendDerive|TestLeafKernelBitIdentical|TestConcurrentAppendSnapshotCompact|TestSharedTrieConcurrentPaths|TestForcedPathsAgree|TestMetaColumn' ./internal/trie ./internal/exec ./internal/storage

# Non-blank, non-comment lines of non-test Go in the packages the
# "one executor", "one scalar evaluator" and "one cost model" work is
# held to (ROADMAP aim 2: net-negative LOC is a result to report).
loc:
	@find internal/exec internal/core internal/approx internal/trie internal/sketch internal/expr internal/costopt -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -vE '^\s*(//|$$)' | wc -l

ci: vet lint build race flake-check bench-check iocheck bench-smoke telemetry-race telemetry-smoke chaos crash difftest hybrid-race

clean:
	$(GO) clean ./...
