# Build/verify/benchmark driver. `make all` is the pre-merge gate: static
# checks, the race-mode short suite, and a full build.
GO ?= go

.PHONY: all build vet test race bench bench-scaling bench-hier loadgen-smoke

all: vet race build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The short suite under the race detector: exercises the shared stage
# database and worker-pool fan-out concurrently (see docs/PERFORMANCE.md).
race:
	$(GO) test -race -short ./...

# Headline perf benchmarks (E2 accuracy suite, E6 chip-scale analysis),
# three runs each, recorded in BENCH_1.json next to the seed baseline.
bench:
	./scripts/bench.sh

# Cross-commit record only (BENCH_5): with BENCH_MAIN_BIN naming a bench
# test binary built at the comparison commit, an interleaved same-runner
# A/B of BenchmarkE6ChipScale; without it, nothing is written.
bench-scaling:
	BENCH_ONLY=scaling ./scripts/bench.sh

# Hierarchical-macromodel record only (BENCH_9): the interleaved hier
# on/off A/B on E6-XL (chip:32,10) and the chip:64,40 hier-on scale
# point. The stamped-speedup floor (stage_reduction >= 5) is
# informational — a shortfall warns, it does not fail.
bench-hier:
	BENCH_ONLY=hier ./scripts/bench.sh

# Load/chaos smoke: ~100 scripted sessions against a spawned crystald
# with response validation, a mid-run SIGTERM+restart, and injected
# slow/failing async jobs. Zero validation failures is the gate (~30s).
loadgen-smoke:
	./scripts/loadgen_smoke.sh
