# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test lint fmt vet clumsylint lint-self lint-mutation inline race perfbench perfbench-pins examples paper-tables kill-resume fleet state clumsyd crashtest

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
# DESIGN.md "Enforced invariants"), and the hot path's inlining.
lint: vet fmt clumsylint lint-self lint-mutation inline

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

# inline fails unless the compiler still inlines the calls DESIGN.md "The
# L1D hit path" relies on: table.lookup in L1Data.readWord and writeWord
# (its two calls in l1data.go), and L1Data.Load32 and Load8 in the
# engine. No test can see a lost inlining. Calls are counted in the -m
# report by file and callee, never by line number.
inline:
	@report="$$($(GO) build -gcflags=-m ./internal/cache ./internal/clumsy 2>&1)" || { echo "$$report"; exit 1; }; \
	fail=0; set -f; \
	for want in '2 internal/cache/l1data.go (*table).lookup' \
		'1 internal/clumsy/engine.go cache.(*L1Data).Load32' \
		'1 internal/clumsy/engine.go cache.(*L1Data).Load8'; do \
		set -- $$want; \
		n=$$(echo "$$report" | awk -v f="$$2:" -v c="$$3" 'index($$1, f) == 1 && / inlining call to / && $$NF == c' | wc -l); \
		if [ "$$n" -lt "$$1" ]; then echo "inline: $$2 inlines $$3 at $$n call sites, want $$1"; fail=1; fi; \
	done; \
	exit $$fail

# perfbench vets and self-tests the repository benchmark. perfbench/ is its
# own Go module, so the root `go vet ./...` and `go test ./...` skip it;
# this keeps a change to the API it drives (Calibrate, OpenNode,
# Node.Process, Close) from breaking it unnoticed. Run one workload with
# `bash perfbench/run.sh --workload paper-long --seed 1`.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# perfbench-pins runs each benchmark workload at full size for about a
# second and fails unless every operation's digest matches
# perfbench/pins.json. The self-test above runs at reduced sizes, where
# nothing is pinned (about a minute on 2 vCPUs).
perfbench-pins:
	@for w in study-short paper-long contain-long fleet-long; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 | tail -n 1); \
		echo "$$w: $$(echo "$$last" | cut -c1-60)"; \
		case "$$last" in *'"correct":true'*'"failed":0,'*) ;; *) echo "$$w: digests differ from perfbench/pins.json"; exit 1;; esac; \
	done

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

# kill-resume interrupts a journaled study with SIGINT as soon as its
# journal holds a record, and fails unless the journal then holds fewer
# than RECORDS records, the study exits non-zero and leaves no -out file.
# It then resumes the study from the journal and compares the output with
# an uninterrupted run. CI runs it on two studies:
#   make kill-resume STUDY=all STUDY_FLAGS='-packets 4000 -trials 2' RECORDS=163
#   make kill-resume STUDY=state STUDY_FLAGS='-packets 8000 -trials 3' RECORDS=24
# The outputs are out/$(STUDY)-resumed.txt and out/$(STUDY)-fresh.txt.
STUDY ?= all
STUDY_FLAGS ?= -packets 4000 -trials 2
RECORDS ?= 163
kill-resume:
	$(GO) build -o clumsy-bin ./cmd/clumsy
	mkdir -p out
	rm -f out/$(STUDY).jsonl out/$(STUDY).txt out/$(STUDY)-resumed.txt out/$(STUDY)-fresh.txt
	@set -ex; \
	./clumsy-bin $(STUDY) $(STUDY_FLAGS) -journal out/$(STUDY).jsonl -out out/$(STUDY).txt & pid=$$!; \
	for i in $$(seq 1 1200); do [ -s out/$(STUDY).jsonl ] && break; sleep 0.1; done; \
	kill -INT $$pid || { echo "$(STUDY) exited before the signal"; exit 1; }; \
	records=$$(wc -l < out/$(STUDY).jsonl); \
	if [ "$$records" -ge $(RECORDS) ]; then echo "journal held all $$records records at the signal: nothing was interrupted"; exit 1; fi; \
	if wait $$pid; then echo "interrupted $(STUDY) must exit non-zero"; exit 1; fi; \
	test ! -f out/$(STUDY).txt; \
	test -s out/$(STUDY).jsonl
	./clumsy-bin $(STUDY) $(STUDY_FLAGS) -journal out/$(STUDY).jsonl -resume -out out/$(STUDY)-resumed.txt
	./clumsy-bin $(STUDY) $(STUDY_FLAGS) -out out/$(STUDY)-fresh.txt
	cmp out/$(STUDY)-resumed.txt out/$(STUDY)-fresh.txt

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
