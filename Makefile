# Standard entry points; `make verify` is the gate a change must pass.

GO ?= go

.PHONY: build test vet race drift secretcheck livebench-vet verify allocs chaos timers bench bench-json bench-baseline fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Documentation drift gate: every vnetp_* metric family and trace stage
# name must match between the code and DESIGN.md.
drift:
	$(GO) run ./scripts/driftcheck

# Secrets-hygiene gate: tenant AEAD keys and TLS private keys must never
# reach logs or hex encodings (fingerprints are the approved form).
secretcheck:
	$(GO) run ./scripts/secretcheck

# The benchmark harness is its own module (livebench/go.mod), so the
# root build and tests never compile it; vet it so an API change the
# harness depends on fails here rather than in a benchmark run.
livebench-vet:
	cd livebench && $(GO) vet ./...

# Full verification: compile, static checks, plain suite, race suite,
# doc drift, secrets hygiene, benchmark-harness compile.
verify: build vet test race drift secretcheck livebench-vet

# Every allocation pin: the testing.AllocsPerRun tests, all named
# *Allocs* except the disabled-tracer check. The receive and transmit
# pins skip under -race, whose instrumentation allocates, so this plain
# run is their gate.
allocs:
	$(GO) test -count=1 -run 'Allocs|TracerDisabledSamplesNothing' ./internal/...

# Crash-injection and drain-stress suite: panics and stalls injected
# into live datapath components, graceful-drain and close-under-traffic
# leak checks, and the control-plane hardening tests. Always under
# -race, with a hard timeout so a deadlocked teardown fails instead of
# hanging CI.
chaos:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'Chaos|Drain|CloseUnderTraffic|Churn|Supervis|Panic|Backoff|Watchdog|Stop|Inject|Daemon|Client|Idempotent' \
		./internal/overlay ./internal/supervise ./internal/control

# Endpoint.Recv reuses timers; its timer-safety tests must pass under
# both timer-channel semantics (a library's follow the importing
# module's go version, so either may be in force).
timers:
	GODEBUG=asynctimerchan=1 $(GO) test -count=1 -run '^TestRecv' ./internal/overlay
	GODEBUG=asynctimerchan=0 $(GO) test -count=1 -run '^TestRecv' ./internal/overlay

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Machine-readable microbenchmark results (CI uploads the JSON artifact),
# gated against the committed baseline: >15% throughput regression fails.
# Refresh the baseline intentionally with `make bench-baseline`.
bench-json:
	$(GO) run ./cmd/vnetbench -json BENCH_microbench.json
	$(GO) run ./scripts/benchguard -bench BENCH_microbench.json -baseline scripts/benchguard/baseline.json

bench-baseline:
	$(GO) run ./cmd/vnetbench -json BENCH_microbench.json
	$(GO) run ./scripts/benchguard -bench BENCH_microbench.json -baseline scripts/benchguard/baseline.json -update

# Short coverage-guided runs of each fuzz target (the CI smoke).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzEncapDecode -fuzztime=10s ./internal/bridge
	$(GO) test -run=^$$ -fuzz=FuzzReassembler -fuzztime=10s ./internal/bridge
	$(GO) test -run=^$$ -fuzz=FuzzSealOpen -fuzztime=10s ./internal/seal
	$(GO) test -run=^$$ -fuzz=FuzzFlowKey -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzFlowCache -fuzztime=10s ./internal/overlay

clean:
	$(GO) clean ./...
