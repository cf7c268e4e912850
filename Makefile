# Tier-1 verification gate. `make verify` is what CI and pre-merge runs:
# it must stay green on every commit.

GO ?= go

.PHONY: verify fmt vet build test race chaos bench-concurrency bench-obs bench figures authwatch-smoke flightrec-smoke repl-smoke prof-smoke risk-smoke metrics-lint fuzz cover clean

verify: fmt vet build test race chaos bench-concurrency bench-obs authwatch-smoke flightrec-smoke repl-smoke prof-smoke risk-smoke metrics-lint figures fuzz cover

# Fails listing every file gofmt would change.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Degraded-network gate, seeded and deterministic: the full login storm
# under 30% datagram loss, 2x duplication, and a partitioned RADIUS
# backend (TestAuthUnderChaos), plus the per-layer fault regressions
# (spoofed-datagram discard, faultnet self-tests, directory fail-closed),
# all with the race detector watching.
chaos:
	$(GO) test -race -count 1 -run 'TestAuthUnderChaos' ./internal/core
	$(GO) test -race -count 1 ./internal/faultnet ./internal/leakcheck
	$(GO) test -race -count 1 -run 'TestSpoofedResponseSilentlyDiscarded|TestDeadServerRetransmitBackoff|TestPool' ./internal/radius
	$(GO) test -race -count 1 -run 'TestClientThroughFaultNet' ./internal/directory

# The hot-path concurrency benchmarks: BenchmarkValidateParallel must not
# collapse as GOMAXPROCS grows (per-user lock striping), and
# BenchmarkRadiusRetransmitStorm must report handler-calls/op = 1
# (exactly-once evaluation under retransmit storms).
bench-concurrency:
	$(GO) test -run xxx -bench 'BenchmarkValidateParallel|BenchmarkRadiusRetransmitStorm' -benchtime 0.5s -cpu 1,2,4 .

# Observability overhead gates: vet the obs package and prove that (a) the
# metrics-instrumented otpd.Check hot path stays within 5% of the
# uninstrumented one (TestObsOverheadGate), (b) the span + event pipeline
# stays within 5% of metrics-only (TestSpanEventOverheadGate), (c) the
# continuous profiler sampling at its structural ceiling keeps Check
# within 5% of profiler-off (TestProfOverheadGate), and (d) the PAM risk
# gate keeps the full stack's password+gate path within 5% of a gateless
# stack (TestRiskGateOverheadGate). All are interleaved min-of-trials
# comparisons.
bench-obs:
	$(GO) vet ./internal/obs/
	OBS_OVERHEAD_GATE=1 $(GO) test ./internal/otpd -run 'TestObsOverheadGate|TestSpanEventOverheadGate|TestProfOverheadGate' -count 1 -v -timeout 20m
	OBS_OVERHEAD_GATE=1 $(GO) test ./internal/pam -run 'TestRiskGateOverheadGate' -count 1 -v -timeout 20m

# Streaming-analytics smoke: a short run of each simulator with the event
# bus attached, cross-checking the live authwatch day buckets against the
# simulator's reference counts (exact equality, every kind of mismatch
# reported by name, no goroutine left behind; race detector on).
authwatch-smoke:
	$(GO) test -race -count 1 -run 'TestStreamingParity' ./internal/rollout

# Flight recorder gate: the chaos-storm acceptance test (every failed
# login retrievable by trace ID with a complete four-leg span tree),
# deterministic success sampling across identically seeded runs, the SLO
# burn-rate / healthz acceptance test, and the torn-tail truncate-at-every-
# byte recovery sweep — race detector on.
flightrec-smoke:
	$(GO) test -race -count 1 -run 'TestFlightRecorderUnderChaosStorm|TestSuccessSamplingReproducibleAcrossRuns|TestFailureBurstBurnsSLOAndDegradesHealthz' ./internal/core
	$(GO) test -race -count 1 -run 'TestTornTailSweep|TestRecoveryAfterRestart' ./internal/flightrec

# Replication / HA gate: the WAL log-shipping protocol tests (catch-up
# from ring/segments/snapshot, epoch fencing both directions, MinSync
# fail-closed, torn-stream determinism), the leader-failover capstone
# (leader killed mid login-storm under a faultnet partition; the promoted
# standby must show zero double-accepted OTPs and zero lost lockout
# increments), and the store-side LSN / compaction durability
# regressions — race detector on.
repl-smoke:
	$(GO) test -race -count 1 ./internal/store/repl
	$(GO) test -race -count 1 -run 'TestLeaderFailoverUnderLoginStorm' ./internal/core
	$(GO) test -race -count 1 -run 'TestLSNMonotonicAcrossCompactReopen|TestCompact|TestEpoch|TestFollowerMode|TestApplyReplicated|TestReplica|TestSegmentFrames' ./internal/store
	$(GO) test -race -count 1 -run 'TestCompactThenCrash' ./internal/store/crashtest

# Black-box gate: the capstone e2e (a login storm trips the SLO fast-burn
# trigger and exactly one debounced incident bundle lands with a CPU delta
# profile, goroutine dump, metrics snapshot, and the storm's trace IDs),
# the concurrent diagnostics-endpoint scrape, the incident torn-tail
# truncate-at-every-byte sweep, the shared segment-log layer, and the
# offline loganalyze incident reader — race detector on.
prof-smoke:
	$(GO) test -race -count 1 -run 'TestLoginStormTripsOneIncidentBundle|TestDiagnosticsEndpointsConcurrentScrape' ./internal/core
	$(GO) test -race -count 1 ./internal/obs/prof ./internal/seglog ./cmd/loganalyze

# Adaptive-MFA gate (DESIGN.md §14), race detector on: the attack-mix
# evaluation (every scripted breach removed engine-on, zero legitimate
# lockouts, fewer prompts), byte-identical double runs, exact authwatch
# parity on the on-arm stream, the JSONL replay regression, the bounded
# feature store (eviction, ring, concurrency), and the PAM gate semantics
# (skip/step-up/deny, exemption override, fail-open).
risk-smoke:
	$(GO) test -race -count 1 -run 'TestRiskEval|TestStreamingParity/riskeval' ./internal/rollout
	$(GO) test -race -count 1 ./internal/risk/... ./internal/geoip
	$(GO) test -race -count 1 -run 'TestRiskGate|TestRiskFeedbackLoop' ./internal/pam ./internal/sshd

# Metrics hygiene gate: lint the live portal /metrics exposition (typing,
# sort order, label consistency, unit-suffix conventions) with runtime,
# SLO, and flight recorder families all registered.
metrics-lint:
	$(GO) test -count 1 -run 'TestPortalMetricsExpositionIsLintClean' ./internal/core
	$(GO) test -count 1 -run 'TestLint' ./internal/obs

# Figure parity gate (~25 s): regenerate the paper's figures from a fresh
# full-calendar run on the core.New deployment, with the live authwatch
# aggregator cross-checking every daily series, then fail on any drift
# from the checked-in FIGURES.txt. On drift the regenerated output is left
# in .figures.gen for inspection.
figures:
	$(GO) run ./cmd/rollout -all -q -authwatch > .figures.gen
	diff -u FIGURES.txt .figures.gen
	rm -f .figures.gen

# Codec fuzz smoke: ten seconds per target. seglog owns the one frame
# codec (store WAL, snapshots, flight recorder, incident store):
# FuzzRecover drives its scanner and recovery on every input
# (FuzzDecodeFrame's own corpus runs as a plain test). The store targets
# fuzz what it adds on top — the batch payload codec behind that scanner
# (FuzzDecodeRecord) and full store recovery (FuzzRecoverWAL). go fuzz
# takes one target per invocation.
# -fuzzminimizetime is capped in executions, not wall time: minimizing a
# coverage-increasing input re-runs the (file-I/O-heavy) recovery target,
# and the default 60s budget would eat the whole smoke.
fuzz:
	$(GO) test -run xxx -fuzz 'FuzzDecodeRecord$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/store
	$(GO) test -run xxx -fuzz 'FuzzRecoverWAL$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/store
	$(GO) test -run xxx -fuzz 'FuzzRecover$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/seglog

# Coverage gates, 90% statement floors each: the sharded store (with its
# crashtest harness and the replication protocol exercising it), and the
# adaptive-MFA decision layer (risk engine + feature store + geoip) whose
# skip/deny outcomes are security-critical.
cover:
	$(GO) test -count 1 -coverprofile .cover.store.out \
		-coverpkg openmfa/internal/store \
		./internal/store ./internal/store/crashtest ./internal/store/repl
	@$(GO) tool cover -func .cover.store.out | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/store statement coverage: %.1f%% (floor 90%%)\n", pct; \
		if (pct < 90) { print "FAIL: coverage below floor"; exit 1 } }'
	@rm -f .cover.store.out
	$(GO) test -count 1 -coverprofile .cover.risk.out \
		-coverpkg openmfa/internal/risk,openmfa/internal/risk/feature,openmfa/internal/geoip \
		./internal/risk/... ./internal/geoip
	@$(GO) tool cover -func .cover.risk.out | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "risk+feature+geoip statement coverage: %.1f%% (floor 90%%)\n", pct; \
		if (pct < 90) { print "FAIL: coverage below floor"; exit 1 } }'
	@rm -f .cover.risk.out

# Every micro-benchmark once (figures, tables, ablations). The login
# benchmark of record is bench/ (BENCHMARK.json; `go run ./bench -out F`,
# `go run ./bench -compare A B`).
bench:
	$(GO) test -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
