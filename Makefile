# Single source of truth for build/test/bench commands: CI invokes these
# targets, so local runs reproduce CI exactly.

GO        ?= go
BENCH_PR  ?= BENCH_pr.json
BASELINE  ?= BENCH_baseline.json
MAX_REGRESS ?= 0.25
# The one definition of the gate's measurement configs: bench, bench-gate and
# bench-baseline all expand it, so the checked-in baseline cannot drift from
# what the gate measures. -stream-bench adds the online abstractor's
# per-arrival rows, so the gate also guards streaming cost regressions;
# -index-bench adds columnar index build-throughput and bytes/event rows plus
# the restart cost rows (IndexCold = re-parse+build, IndexOpen = OpenIndex on
# the persistent file, with a hard >= 5x open-vs-cold floor), so it guards
# both the event-log core's memory layout and the persistent format's point;
# -pipeline-bench adds the staged engine's end-to-end rows (cold, fully
# cached warm, and tail-only change) so the /pipeline serving path and its
# stage cache are guarded too; -shard-bench adds cluster throughput at 1, 2
# and 4 shards through the digest router (with a hard >= 2.5x 4-shard-vs-1
# floor), so the gate also guards the scale-out claim of the sharded
# serving layer.
BENCH_FLAGS = -table 6 -quick -stream-bench -index-bench -eval-bench -pipeline-bench -shard-bench
# Where `make serve` keeps the warm tier (spilled session indexes, persisted
# results); `make clean-data` wipes it.
DATA_DIR ?= gecco-data

.PHONY: build test race vet lint staticcheck fmt-check perfbench-check bench bench-gate bench-baseline shard-bench serve examples clean-data all

all: build vet lint fmt-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par/ ./internal/candidates/ ./internal/distance/ ./internal/constraints/ ./internal/core/ ./internal/service/ ./internal/shard/ ./internal/stream/ ./internal/eventlog/ ./internal/experiments/ .

vet:
	$(GO) vet ./...

# The repository's own multichecker (internal/analysis): five analyzers
# enforcing the determinism, wall-clock, context-flow, sync.Once, and
# hot-path invariants. Built from source — no network-installed tools.
lint:
	$(GO) run ./cmd/gecco-vet ./...

# Static analysis beyond vet. CI installs the pinned version below; locally
# the target uses whatever staticcheck is on PATH and tells you how to get
# one if none is found (it does not download anything itself, so offline
# builds stay offline).
STATICCHECK         ?= staticcheck
STATICCHECK_VERSION ?= 2024.1.1
staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:" >&2; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; \
		exit 1; }
	$(STATICCHECK) ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# perfbench is its own module over this one's internal packages, so an
# internal API change can break its build without `go build ./...` noticing.
# Vet and test it with perfbench/run.sh's offline environment.
PERFBENCH_ENV = GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet . && $(PERFBENCH_ENV) $(GO) test .

# Quick Table VI run with a machine-readable report (the CI artifact).
bench:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS) -json $(BENCH_PR)

# Bench + fail on >MAX_REGRESS wall-time regression vs the checked-in baseline.
bench-gate:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS) -json $(BENCH_PR) -baseline $(BASELINE) -max-regress $(MAX_REGRESS)

# Regenerate the checked-in baseline with exactly the gate's configs (run on
# the reference machine, commit the result).
bench-baseline:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS) -json $(BASELINE)

# Just the scale-out measurement: 1/2/4-shard cluster throughput through the
# digest router, with the hard >= 2.5x 4-shard floor. Fast enough to run on
# its own while touching the router or the ring.
shard-bench:
	$(GO) run ./cmd/gecco-bench -table none -shard-bench

# Build and smoke-run every example program, so example drift fails CI
# instead of rotting silently.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

serve:
	$(GO) run ./cmd/gecco-serve -addr :8080 -data-dir $(DATA_DIR)

# Wipe the warm tier. Safe at any time: it holds only derived data (spilled
# indexes, persisted results) that the next run rebuilds on demand.
clean-data:
	rm -rf $(DATA_DIR)
