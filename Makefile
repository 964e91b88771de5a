# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test lint fmt vet clumsylint lint-self lint-mutation race bench perfbench fleet state clumsyd crashtest

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

race:
	$(GO) test -race -timeout 10m ./...

# lint is the full static-analysis gate: standard vet, formatting drift,
# the project's own invariant analyzers over the whole tree, the
# analyzers over themselves, and the mutation tests that prove each
# analyzer still catches its bug class (see internal/lint and
# DESIGN.md "Enforced invariants").
lint: vet fmt clumsylint lint-self lint-mutation

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l . 2>/dev/null)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

clumsylint:
	$(GO) run ./cmd/clumsylint ./...

# lint-self: the analyzer suite must hold its own code to the same bar.
lint-self:
	$(GO) run ./cmd/clumsylint ./internal/lint/... ./cmd/clumsylint/...

# lint-mutation: golden fixtures plus the mutation tests (deleted
# snapshot copy, dropped fingerprint input, de-annotated hot path,
# removed switch arm — each must be caught by its analyzer).
lint-mutation:
	$(GO) test -run 'TestMutation|TestAnnotationRemoval' ./internal/lint/...

# bench writes an auto-numbered BENCH_<n>.json performance snapshot of the
# quick matrix (drop -quick for the full one). Diff two snapshots with
# `go run ./cmd/clumsy bench -compare BENCH_0.json BENCH_1.json`.
bench:
	$(GO) run ./cmd/clumsy bench -quick -progress

# perfbench vets and self-tests the repository benchmark. perfbench/ is its
# own Go module, so the root `go vet ./...` and `go test ./...` skip it;
# this keeps a change to the API it drives (Calibrate, OpenNode,
# Node.Process, Close) from breaking it unnoticed. Run one workload with
# `bash perfbench/run.sh --workload paper-long --seed 1`.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# fleet runs the fleet degradation study (faulty-node fraction sweep on the
# virtual-time cluster simulator). `go run ./cmd/clumsy fleet -faulty N ...`
# runs one fleet simulation instead.
fleet:
	$(GO) run ./cmd/clumsy fleet -progress

# state runs the state-integrity study: flow-table corruption detection
# and the recovery ladder for the stateful apps (fw, flowtrack) across
# fault regime x scrub interval x workload shape.
state:
	$(GO) run ./cmd/clumsy state -progress

# clumsyd starts the campaign service on its default address with a local
# data directory. Submit work with e.g.
#   curl -X POST localhost:8377/campaigns -d '{"study":"table1"}'
clumsyd:
	$(GO) run ./cmd/clumsyd -data clumsyd-data

# crashtest runs the kill-point matrix: deterministic I/O fault injection
# (short writes, fsync errors, ENOSPC, torn renames) crashes the daemon at
# every injected point; journals must be absent or replayable, never
# corrupt, and recovery must complete byte-identically.
crashtest:
	$(GO) test -run 'TestCrashMatrix|TestKillAndRecover|TestSecondSignal' -v -timeout 10m ./cmd/clumsyd
	$(GO) test -run 'TestWriteFileFaultMatrix|TestStreamingFileFaultMatrix' -timeout 5m ./internal/atomicio
