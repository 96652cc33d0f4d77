GO ?= go

.PHONY: build test test-race race-smoke bench bench-test fuzz-smoke bench-smoke load-smoke chaos-smoke obs-smoke examples-smoke sim sim-smoke fmt vet lint lint-test loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Race-enabled smoke legs at reduced sizes: the serving, chaos, and
# observability harnesses under the race detector, with a
# race-instrumented gae-server for the spawning harnesses. First, twenty
# runs each of the tests that pin the one-owner rule — every call into a
# deployment takes its one lock, and Run gives it up at each boundary —
# and the bugs it closed: every method row called through the local
# client and the wire handler beside a running engine, reads and writes
# alike, so that any call or boundary outside the lock, usage flows racing
# the fair-share manager's readers among them, is a race, and a journal
# replay must reach the live state (TestCallsBesideRun); the same calls
# beside goroutines that checkpoint and capture the deployment, so that a
# capture outside the lock, or a call's metric handles made outside it,
# is a race, and recovery from the last checkpoint plus its journal tail
# must reach the live state (TestCheckpointBesideCalls); a read waiting
# out a whole Run (TestReadDuringRunReturnsFirst); a pump that launches a
# task twice (TestConcurrentSubmitsLaunchEachTaskOnce); a plan name that
# two submissions both win, in the scheduler's plan table through core's
# RPC binding (TestConcurrentSubmitsOfOneName); a checkpointed job the
# engine starts before its checkpoint is set (TestCheckpointedMoveBesideRun);
# a request ID delivered twice at once and applied twice
# (TestConcurrentDuplicateDeliveryAppliesOnce); concurrent mutations
# journaled in another order than they were applied
# (TestConcurrentMutationsReplayInApplyOrder, and the loadgen mix,
# TestRunMixedWorkload); and a machine ad rewritten between passes that
# the next pass does not resync (TestIncrementalRefreshMatchesFullWalk;
# test-race also runs TestAdMutationBesideRunningEngine, which writes the
# ads from a goroutine that shares one lock with the engine's).
race-smoke:
	$(GO) test -race -count=20 -run 'TestCallsBesideRun|TestCheckpointBesideCalls|TestReadDuringRunReturnsFirst|TestConcurrentSubmitsLaunchEachTaskOnce|TestConcurrentSubmitsOfOneName|TestCheckpointedMoveBesideRun|TestConcurrentDuplicateDeliveryAppliesOnce|TestConcurrentMutationsReplayInApplyOrder|TestRunMixedWorkload|TestIncrementalRefreshMatchesFullWalk' ./internal/core ./internal/loadgen ./internal/condor
	$(GO) build -race -o bin/gae-server-race ./cmd/gae-server
	$(GO) run -race ./cmd/gae-loadgen -clients 2 -ops 8 -data "$$(mktemp -d)" -json -
	$(GO) run -race ./cmd/gae-chaos -clients 2 -ops 6 -kills 1 -server bin/gae-server-race
	$(GO) run -race ./cmd/gae-obs-smoke -clients 2 -ops 8 -server bin/gae-server-race

# Full benchmark sweep (figures, ablations, micro, fairness).
bench:
	$(GO) test -run xxx -bench . -benchmem .

# The benchmark harness (bench/, the command BENCHMARK.json names) is a
# module of its own, so `make test` does not reach it; this does. A change
# to condor, classad or core that breaks the harness fails here rather
# than at the next benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Differential fuzz of the XML-RPC scanner against the encoding/xml decoder
# it replaced (kept in a _test.go file as the oracle): 20 s must run clean.
# The same target is also differential over typed destinations: every
# response both decoders accept is decoded straight into a set of Go types
# and compared with Unmarshal over the oracle's tree, so the one-pass
# decoder needs no target of its own.
# Then 10 s of the journal scanner on arbitrary and corrupted journals: it
# never panics, returns a prefix of what was written, and the length it
# verified — what Open cuts the file to — rescans clean to the same ops.
# Then 10 s of the same contract for the history segment's scanner, under
# every record count a snapshot could name. Last, 10 s of the ClassAd
# expression parser and evaluator against the tree implementation they
# replaced (kept in a _test.go file as the oracle): the same accept or
# reject and error text, String, value, rank class and pinned literals.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeAgainstEncodingXML -fuzztime 20s ./internal/xmlrpc
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzHistoryReplay -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzExprAgainstTree -fuzztime 10s ./internal/classad

# Short-run scenario smoke: exercises the discrete-event engine end to
# end without the full sweep. The million-job scenario runs at its
# scaled-down CI size (100k jobs, 10k machines), then its cost is gated in
# counts (events, wakes, matches per pass, idle wakes — functions of the
# workload, not of the host: the same on idle Mips-1 machines at 2⁻⁷ s, on
# loaded Mips-1.5 machines at 10 ms, and with fault-injected jobs), in the
# size of the pool's job record and of a fair-share usage flow, in where
# a completion's fields sit in the node and the machine (a node's Wake,
# synced and task list lead it; what a machine's completion reads
# is one 64-byte span: CompletionPathLayout), in the allocations a pass's sort keys cost (none, starved owners or not), in
# live-heap bytes per queued and per finished job, and in the mallocs and
# bytes a job costs the run; what
# keeping the negotiator's ordered views costs is gated in Rank evaluations
# per machine that changed; and what reading, suspending and resuming a long task costs
# is gated in Segment calls, the same whatever the tick and the time gone by
# (under a load of one-minute segments: the same whatever the tick, and at
# most the look-ahead bound per change). What a grid with weather costs is
# gated in boundaries and pool wakes: a load that steps costs each pool one
# wake per step on top of the constant legs' counts (the stepped leg of
# MillionSmokeCounts), six hours of two jobs under a diurnal load visit a
# boundary a minute and not one a second (WeatherIsEventDriven), and a
# usage flow is re-rated at its node's load boundaries by wakes that count
# them (FlowFollowsLoadSegments). Then what one monitoring reply costs the
# wire codec, the typed client and the serving mux, in allocations that
# repeat exactly. Last, what a checkpoint writes and allocates: the same
# after 10 new charges whether 100 or 10 000 were billed before them
# (CheckpointFollowsDelta), and what one call of the local client
# allocates, journaled with and without a store and not journaled
# (LocalCallAllocCeilings). What a wave of jobs costs is gated in
# allocations: an expression parses into one block no larger than the
# tree it replaced (ExprAllocations), a matcher allocates its Rank's class
# key and nothing else (MatcherAllocatesClassOnlyForRank), and a Submit of
# a sim-match job ad stays under its malloc ceiling (SubmitMallocCeiling);
# and what a pass's refresh of the free machines costs is gated in load
# reads: one per machine that entered the free set, none for one that
# stayed (RefreshFollowsChanges). The layouts the matchmaker reads are
# pinned in bytes: an ad entry, carrying its name's key, stays at 48, a
# parse node, carrying a reference's key in its payload, at 24, an Ad at
# 48 and a Matcher at 64 (AdAndMatcherSizes).
bench-smoke:
	GAE_SCENARIO_SCALE=smoke $(GO) test -run xxx -bench Scenario -benchtime 1x .
	$(GO) test -run 'MillionSmokeCounts|JobSize|CompletionPathLayout|FlowAndSortKeysAllocations|JobBytesCeiling|CompletionMallocCeiling|RunBytesPerJob|RankEvalsFollowChanges|SegmentCalls|WeatherIsEventDriven|FlowFollowsLoadSegments|ExprAllocations|MatcherAllocatesClassOnlyForRank|SubmitMallocCeiling|RefreshFollowsChanges|AdAndMatcherSizes' -count=1 . ./internal/condor ./internal/fairshare ./internal/simgrid ./internal/classad
	$(GO) test -run 'WireAllocCeilings|ServeAllocCeiling' -count=1 ./pkg/gae ./internal/xmlrpc
	$(GO) test -run 'CheckpointFollowsDelta|LocalCallAllocCeilings' -count=1 ./internal/core

# Closed-loop serving smoke: the gae-loadgen mixed workload against an
# embedded durable deployment — exits non-zero if any operation fails.
load-smoke:
	$(GO) run ./cmd/gae-loadgen -clients 4 -ops 32 -data "$$(mktemp -d)" -json -

# Exactly-once chaos smoke: concurrent mutating load through a
# fault-injecting transport (drops, ack losses, duplicate deliveries)
# against a real gae-server that is SIGKILLed and restarted mid-load.
# Exits non-zero if any acked op is lost or applied twice.
chaos-smoke:
	$(GO) run ./cmd/gae-chaos -clients 3 -ops 12 -kills 2

# Observability smoke: boots a gae-server, drives a loadgen burst, and
# fails unless every required /metrics family is live, /healthz answers,
# and /debug/rpcs carries the burst's trace spans.
obs-smoke:
	$(GO) run ./cmd/gae-obs-smoke

# Every program under examples/ built and run to completion; a non-zero
# exit fails the target, and so does stdout that differs from the
# program's testdata/stdout.golden once loopback ports (which federation
# binds anew each run) are masked. Each runs in well under a second. After
# an intended change of output, rewrite a golden with
#   go run ./examples/NAME | sed -E 's/127\.0\.0\.1:[0-9]+/127.0.0.1:PORT/g' \
#     > examples/NAME/testdata/stdout.golden
PORTMASK = s/127\.0\.0\.1:[0-9]+/127.0.0.1:PORT/g
examples-smoke:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for d in examples/*/; do \
		echo "examples-smoke: $$d"; $(GO) run ./$$d > "$$out"; \
		sed -E '$(PORTMASK)' "$$out" | diff -u $${d}testdata/stdout.golden -; \
	done

# Replay a fairness scenario, testdata/scenarios/$(SCENARIO).json;
# override with e.g.
#   make sim SCENARIO=bursty-tenant SIMFLAGS=-fairshare=false
SCENARIO ?= starvation-recovery
SIMFLAGS ?=
sim:
	$(GO) run ./cmd/gae-sim -scenario testdata/scenarios/$(SCENARIO).json $(SIMFLAGS) -output -

# The gae-sim binary run on every scenario file, fair share on and off; a
# non-zero exit fails the target, and so does a CSV that differs from
# testdata/golden/NAME.fairshare-BOOL.csv. The in-process golden test
# (TestFairnessGoldens) holds the library to the same files; this holds
# the flags and the file loading too.
sim-smoke:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/gae-sim ./cmd/gae-sim; \
	for f in testdata/scenarios/*.json; do \
		name=$$(basename $$f .json); \
		for fair in true false; do \
			echo "sim-smoke: $$name fairshare=$$fair"; \
			$$bin/gae-sim -scenario $$f -fairshare=$$fair -output $$bin/out.csv 2>$$bin/summary \
				|| { cat $$bin/summary; exit 1; }; \
			diff -u testdata/golden/$$name.fairshare-$$fair.csv $$bin/out.csv; \
		done; \
	done

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './tools/lint/*/testdata/*')

vet:
	$(GO) vet ./...

# gae-lint: the repo's own analyzers (detorder, simtime) over
# the main module. Lives in its own module so the main go.mod stays
# dependency-free; `make lint` must exit 0 on the committed tree.
lint:
	cd tools/lint && $(GO) run ./cmd/gae-lint -dir ../.. ./...

# The analyzers' own test suite: per-analyzer fixtures plus the
# self-lint regression test (equivalent to `make lint`, as a test).
lint-test:
	cd tools/lint && $(GO) vet ./... && $(GO) test ./...

# The tracked sizes (ROADMAP north-star criterion 2), one definition each:
# Go lines of the main module outside and inside _test.go files (and of the
# node's arithmetic, internal/simgrid/node.go, within the former), of
# tools/lint, and of bench/.
loc:
	@echo "main module, non-test: $$(find . -name '*.go' -not -name '*_test.go' -not -path './tools/*' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "  simgrid/node.go:     $$(wc -l < internal/simgrid/node.go)"
	@echo "main module, tests:    $$(find . -name '*_test.go' -not -path './tools/*' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "tools/lint:            $$(find tools/lint -name '*.go' | xargs cat | wc -l)"
	@echo "bench:                 $$(find bench -name '*.go' | xargs cat | wc -l)"
