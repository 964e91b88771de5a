# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test lint fmt vet clumsylint lint-self lint-mutation race perfbench examples paper-tables fleet state clumsyd crashtest

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

# perfbench vets and self-tests the repository benchmark. perfbench/ is its
# own Go module, so the root `go vet ./...` and `go test ./...` skip it;
# this keeps a change to the API it drives (Calibrate, OpenNode,
# Node.Process, Close) from breaking it unnoticed. Run one workload with
# `bash perfbench/run.sh --workload paper-long --seed 1`.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# examples runs every program under examples/ through its Example test,
# which checks what the program prints. `make test` runs them too.
examples:
	$(GO) test -count=1 ./examples/...

# paper-tables regenerates the paper's tables and the extension studies at
# full scale and compares them byte for byte with results_full.txt: `all`
# with lines 1-433, `extensions` with lines 436-516 and the crc ECC study
# with lines 518-525 (about a minute on 2 vCPUs).
paper-tables:
	$(GO) build -o clumsy-bin ./cmd/clumsy
	mkdir -p out
	./clumsy-bin all -packets 3000 -trials 4 -out out/paper-all.txt
	./clumsy-bin extensions -packets 3000 -trials 4 -out out/paper-extensions.txt
	./clumsy-bin ecc -app crc -packets 3000 -trials 4 -out out/paper-ecc-crc.txt
	sed -n 1,433p results_full.txt | cmp - out/paper-all.txt
	sed -n 436,516p results_full.txt | cmp - out/paper-extensions.txt
	sed -n 518,525p results_full.txt | cmp - out/paper-ecc-crc.txt

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
