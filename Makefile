GO ?= go

# Bench runs are archived as BENCH_<tag>.{txt,json}; bump BENCH_OUT each
# PR and compare against the predecessor with bench-compare.
BENCH_OUT  ?= BENCH_PR8
BENCH_PREV ?= BENCH_PR6

.PHONY: all build vet test race lint audit bench bench-compare benchsmoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: go vet plus the project's own analyzers (cmd/hwlint:
# shard lock ordering, callbacks under shard mutexes, nondeterministic
# map-iteration output, direct metric-field access). Zero findings
# required; deliberate exceptions carry //hwlint:allow annotations.
lint: vet
	$(GO) run ./cmd/hwlint ./...

# Runtime invariant audit: the whole test suite with the invariants
# build tag, which arms the paper-property auditor (internal/audit) on
# every Audit-enabled manager — each detector activation is re-verified
# against Theorem 1/3.1/4.1 and Lemma 4.1 from scratch.
audit:
	$(GO) test -tags=invariants ./...

# Full bench sweep with allocation stats; the text output is archived
# alongside a JSON rendering (cmd/benchjson) for diffing across PRs.
bench:
	$(GO) test -run xxx -bench . -benchtime 200ms -benchmem ./... | tee $(BENCH_OUT).txt | $(GO) run ./cmd/benchjson > $(BENCH_OUT).json

# Diff this PR's bench run against the previous one. The gate is
# allocs-only: E22 showed cross-run ns/op on this host is environment-
# dominated, so only allocs/op growth fails; ns/op deltas are printed
# informationally.
bench-compare:
	$(GO) run ./cmd/benchjson compare -allocs-only $(BENCH_PREV).json $(BENCH_OUT).json

# Quick harness check used by CI: the public-API benchmarks (uncontended,
# conflict hand-off, group acquisition) piped straight into the archived
# allocs-only gate, so an alloc regression on the hot path fails CI even
# between full bench sweeps. Time-based -benchtime so warm-up allocations
# (pools, freelists, first map growth) amortize out of allocs/op. -cpu 1
# matches the archive, which was recorded with GOMAXPROCS=1: allocs/op
# can depend on the proc count (the per-shard metrics breakdown follows
# the default shard count), so a multi-core host would otherwise compare
# unlike with unlike.
benchsmoke:
	$(GO) test -run xxx -bench 'BenchmarkManagerUncontended|BenchmarkManagerConflict$$|BenchmarkManagerLockAll|BenchmarkMetricsSnapshot' -benchtime 50ms -benchmem -cpu 1 . | $(GO) run ./cmd/benchjson compare -allocs-only $(BENCH_OUT).json -

# The gate CI runs: everything must pass, including the race detector
# over the cross-shard stress tests, the static analyzers, and the
# invariants-tagged audit suite.
ci: build lint test race audit
