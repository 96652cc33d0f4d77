GO ?= go

.PHONY: build test test-race race-smoke bench bench-test fuzz-smoke bench-smoke chaos-smoke obs-smoke sim fmt vet loc

build:
	$(GO) build ./...

# Every package's tests: the contract. They include every golden (the
# gae-sim, gae-bench and examples/* outputs, run in process), and the root
# package's static checks over one type-check of the module and bench/:
# reachability (reach_test.go) and determinism, simtime and detorder
# (lint_test.go).
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
# TestRunMixedWorkload); and a pool whose own record of its free machines
# drifts from a walk of every free machine
# (TestIncrementalRefreshMatchesFullWalk).
race-smoke:
	$(GO) test -race -count=20 -run 'TestCallsBesideRun|TestCheckpointBesideCalls|TestReadDuringRunReturnsFirst|TestConcurrentSubmitsLaunchEachTaskOnce|TestConcurrentSubmitsOfOneName|TestCheckpointedMoveBesideRun|TestConcurrentDuplicateDeliveryAppliesOnce|TestConcurrentMutationsReplayInApplyOrder|TestRunMixedWorkload|TestIncrementalRefreshMatchesFullWalk' ./internal/core ./internal/loadgen ./internal/condor
	$(GO) build -race -o bin/gae-server-race ./cmd/gae-server
	@set -e; data=$$(mktemp -d); trap 'rm -rf "$$data"' EXIT; \
	$(GO) run -race ./cmd/gae load -clients 2 -ops 8 -data "$$data"
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
# Then 10 s of the typed round trip: a struct built from fuzz inputs fails
# to encode exactly when a string of it holds a rune XML cannot carry, and
# otherwise comes back equal, through Marshal and Unmarshal and in one pass.
# Then 10 s of the journal scanner on arbitrary and corrupted journals: it
# never panics, returns a prefix of what was written, and the length it
# verified — what Open cuts the file to — rescans clean to the same ops.
# Then 10 s of the same contract for the history segment's scanner, under
# every record count a snapshot could name. Last, 10 s of the ClassAd
# expression parser and evaluator against the tree implementation they
# replaced (kept in a _test.go file as the oracle): the same accept or
# reject and error text, String, value, rank class and pinned literals,
# and the same again from two ads that store the input through the
# shared-block table, which must give both one block.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeAgainstEncodingXML -fuzztime 20s ./internal/xmlrpc
	$(GO) test -run '^$$' -fuzz FuzzStructCodecRoundTrip -fuzztime 10s ./internal/xmlrpc
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzHistoryReplay -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzExprAgainstTree -fuzztime 10s ./internal/classad

# The million-job scenario at its scaled-down CI size (100k jobs, 10k
# machines) through the discrete-event engine end to end, once. Its cost
# gates, in counts and allocations, are tier-1 tests (`make test`).
bench-smoke:
	GAE_SCENARIO_SCALE=smoke $(GO) test -run xxx -bench Scenario -benchtime 1x .

# Exactly-once chaos smoke: concurrent mutating load through a
# fault-injecting transport (drops, ack losses, duplicate deliveries)
# against a real gae-server, running testdata/deployments/harness.json,
# that is SIGKILLed and restarted mid-load.
# Exits non-zero if any acked op is lost or applied twice.
chaos-smoke:
	$(GO) run ./cmd/gae-chaos -clients 3 -ops 12 -kills 2

# Observability smoke: boots a gae-server on the same harness deployment,
# drives a loadgen burst, and
# fails unless every required /metrics family is live, /healthz answers,
# and /debug/rpcs carries the burst's trace spans.
obs-smoke:
	$(GO) run ./cmd/gae-obs-smoke

# Replay a fairness scenario, testdata/scenarios/$(SCENARIO).json;
# override with e.g.
#   make sim SCENARIO=bursty-tenant SIMFLAGS=-fairshare=false
SCENARIO ?= starvation-recovery
SIMFLAGS ?=
sim:
	$(GO) run ./cmd/gae-sim -scenario testdata/scenarios/$(SCENARIO).json $(SIMFLAGS) -output -

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The tracked sizes (ROADMAP north-star criterion 2), one definition each:
# Go lines of the main module outside and inside _test.go files (and of the
# node's arithmetic, internal/simgrid/node.go, within the former), and of
# bench/; then the entries of reach_test.go's three allowlists (one
# `"key": "reason",` line each).
loc:
	@echo "main module, non-test: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "  simgrid/node.go:     $$(wc -l < internal/simgrid/node.go)"
	@echo "main module, tests:    $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "bench:                 $$(find bench -name '*.go' | xargs cat | wc -l)"
	@awk '/^var [a-z]+Allowed = map\[string\]string\{/ { name = $$2; n[name] = 0; order[++k] = name; f = !/\{\}$$/; next } \
		f && /^}/ { f = 0 } f && /^\t"/ { n[name]++ } \
		END { for (i = 1; i <= k; i++) printf "%-22s %d\n", order[i] ":", n[order[i]] }' reach_test.go
