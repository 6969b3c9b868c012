# Build/verify/benchmark driver. `make all` is the pre-merge gate: static
# checks, the race-mode short suite, and a full build.
GO ?= go

.PHONY: all build vet test race bench

all: vet race build

build:
	$(GO) build ./...

# bench/ is its own module: vet it too, so an internal/ change that breaks
# the benchmark driver fails here as it does in CI.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

test:
	$(GO) test ./...

# The short suite under the race detector: the job plane and session cache
# under concurrent requests, and the daemon drained under load (cmd/crystald).
race:
	$(GO) test -race -short ./...

# The gated benchmark (BENCHMARK.json): one untraced and one traced run of
# every workload, written to bench/out/set-run.json. bench/README.md
# covers -runs, -compare (the cross-commit A/B) and the per-layer probes.
bench:
	bash bench/run.sh
