# Tier-1 verification gate. `make verify` is what CI and pre-merge runs:
# it must stay green on every commit.

GO ?= go

.PHONY: verify fmt vet build test race chaos bench-concurrency bench-smoke bench examples figures authwatch-smoke flightrec-smoke repl-smoke prof-smoke risk-smoke metrics-lint fuzz cover clean

verify: fmt vet build test race bench-concurrency bench-smoke metrics-lint examples figures fuzz cover

# Fails listing every file gofmt would change.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every test once under the race detector, uncached. The -race targets
# below (chaos and the *-smoke targets) re-run subsets of these tests; they
# are developer shortcuts for one gate, not part of verify.
race:
	$(GO) test -race -count 1 ./...

# Degraded-network gate, seeded and deterministic: the full login storm
# under 30% datagram loss, 2x duplication, and a partitioned RADIUS
# backend (TestAuthUnderChaos), plus the per-layer fault regressions
# (spoofed-datagram discard, stale replies on reused RADIUS client
# sockets, faultnet self-tests, a pairing-lookup outage failing closed in
# every enforcement mode but off), and the serving workers of the RADIUS
# server and sshd (a parked handler or a stalled client holds up no fresh
# login; idle workers are bounded after a burst), all with the race
# detector watching.
chaos:
	$(GO) test -race -count 1 -run 'TestAuthUnderChaos' ./internal/core
	$(GO) test -race -count 1 ./internal/faultnet ./internal/leakcheck
	$(GO) test -race -count 1 -run 'TestSpoofedResponseSilentlyDiscarded|TestUnsignedRequestDiscarded|TestReplyWithoutMessageAuthenticatorDiscarded|TestDeadServerRetransmitBackoff|TestPool|TestSocketReuse|TestStaleReply|TestDeadServerSocket|TestParkedHandlerDoesNotDelayFreshRequest|TestWorkersReturnToIdleBoundAfterBurst' ./internal/radius
	$(GO) test -race -count 1 -run 'TestStalledClientDoesNotDelayLogin|TestWorkersReturnToIdleBoundAfterBurst' ./internal/sshd
	$(GO) test -race -count 1 -run 'TestPairingOutageFailsClosed' ./internal/pam

# The hot-path concurrency benchmarks: BenchmarkValidateParallel must not
# collapse as GOMAXPROCS grows (per-user lock striping), and
# BenchmarkRadiusRetransmitStorm must report handler-calls/op = 1
# (exactly-once evaluation under retransmit storms), and
# BenchmarkRadiusConcurrentClients must accept every login from 16
# clients at once, more in flight than the RADIUS server keeps idle
# workers for.
bench-concurrency:
	$(GO) test -run xxx -bench 'BenchmarkValidateParallel|BenchmarkRadiusRetransmitStorm|BenchmarkRadiusConcurrentClients' -benchtime 0.5s -cpu 1,2,4 .

# Login-benchmark smoke: the benchmark's own entry point (BENCHMARK.json's
# command) for 2 s on each listed workload. `go test ./bench` runs at
# U = 64 for 0.8 s, which never reaches the 5 s RADIUS dedup window; these
# runs pass through the soak and into expiry. Fails on a non-zero exit or a
# run whose result line is not "correct":true.
bench-smoke:
	@for w in totp_mem totp_sync mix_paper; do \
		echo "bench-smoke: $$w"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 2>&1) \
			|| { echo "$$out"; echo "FAIL: $$w exited non-zero"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' \
			|| { echo "$$out"; echo "FAIL: $$w not correct"; exit 1; }; \
	done

# Streaming-analytics smoke, race detector on: the watcher package, and the
# rollout runs whose login series it folds off the event bus (a caller's
# bus with a second subscriber changes no figure; a login dated outside
# the calendar, or a calendar past the watcher's day bound, is refused).
authwatch-smoke:
	$(GO) test -race -count 1 ./internal/authwatch
	$(GO) test -race -count 1 -run 'TestRunBasicSanity|TestDeterminismAcrossRuns|TestRunRefusesStreamOutsideCalendar' ./internal/rollout

# Flight recorder gate: the chaos-storm acceptance test (every failed
# login retrievable by trace ID with a complete four-leg span tree),
# deterministic success sampling across identically seeded runs, the SLO
# burn-rate / healthz acceptance tests, and the whole flight recorder
# package (tail sampling, the torn-tail truncate-at-every-byte recovery
# sweep, rotation) over the seglog journal it shares with the incident
# profiler — race detector on.
flightrec-smoke:
	$(GO) test -race -count 1 -run 'TestFlightRecorderUnderChaosStorm|TestSuccessSamplingReproducibleAcrossRuns|TestFailureBurstBurnsSLOAndDegradesHealthz|TestHealthzListsEachCauseOnce' ./internal/core
	$(GO) test -race -count 1 ./internal/flightrec

# Replication / HA gate: the WAL log-shipping protocol tests (catch-up
# from ring/segments/snapshot, epoch fencing both directions, MinSync
# fail-closed, torn-stream determinism), the leader-failover capstone
# (leader killed mid login-storm under a faultnet partition; the promoted
# standby must show zero double-accepted OTPs and zero lost lockout
# increments), the pairing failover (pairings made and removed on the
# leader hold on the promoted standby in every enforcement mode), and the
# store-side LSN / compaction durability regressions — race detector on.
repl-smoke:
	$(GO) test -race -count 1 ./internal/store/repl
	$(GO) test -race -count 1 -run 'TestLeaderFailoverUnderLoginStorm|TestFailoverKeepsPairings' ./internal/core
	$(GO) test -race -count 1 -run 'TestLSNMonotonicAcrossCompactReopen|TestCompact|TestEpoch|TestFollowerMode|TestApplyReplicated|TestReplica|TestSegmentFrames' ./internal/store
	$(GO) test -race -count 1 -run 'TestCompactThenCrash' ./internal/store/crashtest

# Black-box gate: the capstone e2e (a login storm trips the SLO fast-burn
# trigger and exactly one debounced incident bundle lands with a CPU delta
# profile, goroutine dump, metrics snapshot, and the storm's trace IDs),
# the concurrent diagnostics-endpoint scrape, the incident torn-tail
# truncate-at-every-byte sweep, the seglog journal the incident store
# shares with the flight recorder, and the offline loganalyze incident
# reader — race detector on.
prof-smoke:
	$(GO) test -race -count 1 -run 'TestLoginStormTripsOneIncidentBundle|TestDiagnosticsEndpointsConcurrentScrape' ./internal/core
	$(GO) test -race -count 1 ./internal/obs/prof ./internal/seglog ./cmd/loganalyze

# Adaptive-MFA gate (DESIGN.md §14), race detector on: the attack-mix
# evaluation (every scripted breach removed engine-on, zero legitimate
# lockouts, fewer prompts), byte-identical double runs, the JSONL replay
# regression, the bounded
# feature store (eviction, ring, concurrency), and the PAM gate semantics
# (skip/step-up/deny, exemption override, nil Risk = the four Figure 1
# modules).
risk-smoke:
	$(GO) test -race -count 1 -run 'TestRiskEval' ./internal/rollout
	$(GO) test -race -count 1 ./internal/risk/... ./internal/geoip
	$(GO) test -race -count 1 -run 'TestRiskGate|TestRiskFeedbackLoop' ./internal/pam ./internal/sshd

# Metrics hygiene gate: lint the live portal /metrics exposition (typing,
# sort order, label consistency, unit-suffix conventions) with runtime,
# SLO, and flight recorder families all registered.
metrics-lint:
	$(GO) test -count 1 -run 'TestPortalMetricsExpositionIsLintClean' ./internal/core
	$(GO) test -count 1 -run 'TestLint' ./internal/obs

# Runs every examples/ program (about 4 s for all six), each under a 60 s
# timeout, and fails on the first non-zero exit: `go build ./...` only
# compiles them.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		timeout 60 $(GO) run ./$$d > /dev/null || { echo "FAIL: $$d"; exit 1; }; \
	done

# Figure gate (~25 s): regenerate the paper's figures from a fresh
# full-calendar run on the core.New deployment, then fail on any drift
# from the checked-in FIGURES.txt. The login series of Figures 3 and 4 are
# the authwatch day buckets folded off the run's event bus, so a lost or
# misfiled login event shows up here. On drift the regenerated output is
# left in .figures.gen for inspection.
figures:
	$(GO) run ./cmd/rollout -all -q > .figures.gen
	diff -u FIGURES.txt .figures.gen
	rm -f .figures.gen

# Codec fuzz smoke: ten seconds per target. seglog owns the one frame
# codec (store WAL, snapshots, flight recorder, incident store):
# FuzzRecover drives its scanner and recovery on every input
# (FuzzDecodeFrame's own corpus runs as a plain test). The store targets
# fuzz what it adds on top — the batch payload codec behind that scanner
# (FuzzDecodeRecord) and full store recovery (FuzzRecoverWAL). sshwire's
# FuzzDecode drives the frame decoder sshd runs before authentication;
# radius's FuzzDecode the datagram decoder every RADIUS hop runs, and
# FuzzMessageAuthenticator holds the HMAC-MD5 to crypto/hmac's bytes and
# the client's requests and the server's replies to a Message-Authenticator
# first, as otp's FuzzGeneratorMatchesHMAC holds the TOTP HMACs.
# go fuzz takes one target per invocation.
# -fuzzminimizetime is capped in executions, not wall time: minimizing a
# coverage-increasing input re-runs the (file-I/O-heavy) recovery target,
# and the default 60s budget would eat the whole smoke.
fuzz:
	$(GO) test -run xxx -fuzz 'FuzzDecodeRecord$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/store
	$(GO) test -run xxx -fuzz 'FuzzRecoverWAL$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/store
	$(GO) test -run xxx -fuzz 'FuzzRecover$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/seglog
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/sshwire
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/radius
	$(GO) test -run xxx -fuzz 'FuzzMessageAuthenticator$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/radius
	$(GO) test -run xxx -fuzz 'FuzzGeneratorMatchesHMAC$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/otp

# Coverage gates, 90% statement floors each: the sharded store (with its
# crashtest harness and the replication protocol exercising it), the
# adaptive-MFA decision layer (risk engine + feature store + geoip) whose
# skip/deny outcomes are security-critical, and the authlog, the only data
# source of the pubkey module's first-factor waiver.
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
	$(GO) test -count 1 -coverprofile .cover.authlog.out ./internal/authlog
	@$(GO) tool cover -func .cover.authlog.out | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/authlog statement coverage: %.1f%% (floor 90%%)\n", pct; \
		if (pct < 90) { print "FAIL: coverage below floor"; exit 1 } }'
	@rm -f .cover.authlog.out

# Every micro-benchmark once (figures, tables, ablations). The login
# benchmark of record is bench/ (BENCHMARK.json; `go run ./bench -out F`,
# `go run ./bench -compare A B`).
bench:
	$(GO) test -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
