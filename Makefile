GO ?= go

.PHONY: all check vet staticcheck build test race session-stress session-smoke store-stress serve-smoke bench bench-smoke bench-record fuzz-smoke emit-golden-update fmt

all: check

# check is the CI gate: vet + staticcheck, build everything, run every
# test once with the race detector (the concurrency stress tests depend
# on it), repeat the session and store stress tests a few extra rounds,
# then smoke the serving layer against a live daemon.
check: vet staticcheck build race session-stress store-stress serve-smoke

vet:
	$(GO) vet ./...

# staticcheck gates CI (the workflow installs it); locally it is skipped
# with a notice when the binary is absent, so offline machines can still
# run `make check`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# session-stress repeats the dialogue-session concurrency and
# goroutine-leak tests under the race detector: interleaved answers,
# expiry, eviction and 100 abandoned sessions.
session-stress:
	$(GO) test -race -count=3 -run 'TestSessionStress|TestAbandonedSessionsLeakNoGoroutines|TestConcurrentAnswersOneSession' ./internal/session/

# store-stress hammers the epoch-snapshot store under the race
# detector: concurrent writers publishing epochs while readers hold and
# render old snapshots, the randomized differential against a naive
# linear-scan oracle (Add/Remove and Apply batches), and the
# cache-invalidation epoch tests on top of it.
store-stress:
	$(GO) test -race -count=3 -run 'TestShardedSnapshotStableUnderConcurrentPublish|TestShardedOldSnapshotSurvivesDeleteAll|TestShardedDifferentialOracle' ./internal/rdf/
	$(GO) test -race -run 'TestDataEpochInvalidatesCachedPlans|TestDeletedEntityNeverResurrectedFromCache' ./internal/core/

# session-smoke curls a live daemon through one scripted dialogue
# (requires curl and jq).
session-smoke:
	./scripts/session_smoke.sh

# serve-smoke runs the end-to-end benchmark for two seconds on read-hot
# and then on write-mix, each against a freshly started daemon. perfbench
# exits non-zero on any failed request, any reply that differs from its
# in-process oracle, a read-hot plan-cache miss, or a write-mix write
# that does not publish exactly one epoch.
serve-smoke:
	bash perfbench/run.sh --workload read-hot --seconds 2
	bash perfbench/run.sh --workload write-mix --seconds 2

# bench-record runs the P-series benches plus one perfbench run per
# workload and writes today's BENCH_<date>.json perf record (requires
# jq).
bench-record:
	./scripts/bench_record.sh

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke runs every benchmark once so bench code cannot silently
# rot; it measures nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# emit-golden-update regenerates the per-backend golden emission files
# (testdata/golden_*.txt) after an intentional emitter change;
# TestBackendGolden checks them on every test run.
emit-golden-update:
	$(GO) test -run TestBackendGolden -update .

# fuzz-smoke runs each native fuzz target briefly: enough to catch
# panics and invariant regressions without slowing the gate. Go allows
# one -fuzz pattern per package invocation, hence one run per target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/nlp/
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/sparql/
	$(GO) test -fuzz=FuzzNTriplesRoundTrip -fuzztime=20s ./internal/rdf/

fmt:
	gofmt -l -w .
