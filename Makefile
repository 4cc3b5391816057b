# Convenience targets for the wasmcontainers reproduction.

GO ?= go

.PHONY: all build vet test race obs-overhead faults-smoke tiers-smoke smoke bench figures results examples clean

all: build vet test race obs-overhead faults-smoke tiers-smoke smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

test:
	$(GO) test ./...

# Concurrency check: the serve warm pool, the dispatcher's observer
# accessors, and the obs registry/tracer are hammered from many goroutines.
# TestChaosObserversRaceFree and TestConcurrentDrawsRaceFree additionally
# poll the circuit breaker and the fault injector from 8 goroutines while a
# chaos simulation runs.
race:
	$(GO) test -race ./...

# Telemetry overhead gate: the per-request instrumentation sequence with
# telemetry disabled must not allocate. The anchored grep keeps "240
# allocs/op" from matching "0 allocs/op".
obs-overhead:
	@out=$$($(GO) test -run NONE -bench BenchmarkInvokeTelemetryDisabled \
		-benchmem -benchtime 10000x ./internal/obs/); \
	echo "$$out"; \
	if ! echo "$$out" | grep -qE '[[:space:]]0 allocs/op'; then \
		echo "obs-overhead: disabled telemetry path allocates"; exit 1; fi
	@out=$$($(GO) test -run NONE -bench 'BenchmarkAdvanceDisabled|BenchmarkAdvanceSameWindow' \
		-benchmem -benchtime 10000x ./internal/obs/tsdb/); \
	echo "$$out"; \
	n=$$(echo "$$out" | grep -cE '[[:space:]]0 allocs/op'); \
	if [ "$$n" -ne 2 ]; then \
		echo "obs-overhead: tsdb sample path allocates"; exit 1; fi

# Chaos smoke: run the full fault-injection ablation grid once. Each cell
# verifies the admission identity (Submitted == Completed+Rejected+Expired+
# Failed) and that no request stalls, so a dispatcher liveness regression
# fails this target even when unit tests miss it.
faults-smoke:
	$(GO) run ./cmd/continuum -exp faults > /dev/null

# Tier smoke: run the execution-tier ablation once. The experiment embeds
# its own gates — a tier-0-only and an eagerly tiered invoke must agree on
# results and instruction counts, hotness cells must actually tier up and
# record the artifact in cache accounting, and tiered warm p50 must improve.
tiers-smoke:
	$(GO) run ./cmd/continuum -exp tiers > /dev/null

# Daemon smoke: boot continuumd on a random loopback port (three nodes,
# dilation 0) and walk one script over HTTP: three modules answer, two of
# them created lazily, with per-module router metrics and a populated
# latency histogram on /metrics; healthy traffic raises no alert, a 100%
# trap burst fires the SLO page (visible on /v1/slo) and recovery clears
# it; killing the serving node re-places its module and invokes keep
# answering 200. SIGTERM then must drain with every module's admission
# identity intact.
smoke:
	$(GO) run ./cmd/continuumd -smoke

# Run every benchmark once (tables, figures, ablations, microbenches,
# interpreter hot-loop and engine instantiate benches).
bench:
	$(GO) test -run NONE -bench=. -benchmem -benchtime 1x ./...

# Regenerate the paper's tables and figures on stdout.
figures:
	$(GO) run ./cmd/continuum -exp all

# Regenerate the committed results/ directory (txt + csv + json per experiment).
results:
	$(GO) run ./cmd/continuum -exp all -outdir results > /dev/null

examples:
	$(GO) run ./examples/density-sweep
	$(GO) run ./examples/hybrid-deployment
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/serving-throughput
	$(GO) run ./examples/standalone-wasm
	$(GO) run ./examples/startup-crossover

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
