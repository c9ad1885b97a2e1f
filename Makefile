# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race soak bench bench-hotpath bench-int bench-baseline bench-gate bench-fused bench-reconfig bench-reconfig-baseline bench-flow bench-flow-baseline bench-drop bench-drop-baseline fuzz-diff fuzz-ccm fuzz-fused fuzz-lpm profile-hotpath cover experiments examples health-smoke fmt vet lint clean

# Benchmarks gated against BENCH_hotpath.json: the per-packet hot path
# (strict 0 allocs/op) plus the whole-switch sharded burst.
GATED_BENCH = BenchmarkHotPath|BenchmarkShardedThroughput
# ns/op slack for bench-gate: CI hosts differ, so only a >3x slowdown
# (tol 2.0 = baseline*(1+2.0)) fails; allocs/op regressions always fail.
BENCH_TOL ?= 2.0

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race soak over the packet path, every test of every package on it, twice:
# the lane lifecycle and its two drivers (driver parity, conservation
# across Shutdown), the lock-free lookup snapshot and pools, the traffic
# manager, the ring ports' port-to-lane hand-off, the flow tables' hold
# with two writers on one lane, racing readers and clash evictions, and
# the loss-forensics ledger with every drop reason firing at once under a
# hitless edit storm.
soak:
	$(GO) test -race -count=2 ./internal/ipbm/ ./internal/pisa/ ./internal/pipeline/ ./internal/dataplane/ ./internal/tsp/ ./internal/netio/ ./internal/flowstat/ ./internal/telemetry/

bench:
	$(GO) test -bench=. -benchmem ./...

# Steady-state forwarding benchmark, fused executor vs the interpreter
# oracle. Use -count and min-of-N when comparing: single runs are noisy.
bench-hotpath:
	$(GO) test -run xxx -bench 'BenchmarkHotPath' -benchmem -count=5 .

# INT overhead smoke: fails if the INT-disabled hot path allocates, and
# reports the per-packet cost of forwarding with stamping compiled out.
bench-int:
	$(GO) test ./internal/ipbm/ -run TestIntDisabledZeroAlloc -count=1 -v
	$(GO) test -run xxx -bench 'BenchmarkHotPath_FusedScalar' -benchmem -count=3 .

# Record the committed benchmark baseline (min over 5 runs). Run on a
# quiet machine, then commit BENCH_hotpath.json.
bench-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_BENCH)' -benchmem -count=5 . | bin/benchgate -write BENCH_hotpath.json \
		-note "min of 5 runs; allocs/op is machine-independent and gated strictly, ns/op within tolerance"

# Regression gate against the committed baseline: any allocs/op increase
# fails; ns/op fails only beyond baseline*(1+BENCH_TOL).
bench-gate:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_BENCH)' -benchmem -count=3 . | bin/benchgate -check BENCH_hotpath.json -tol $(BENCH_TOL)

# Executor gate: runs both executor tiers in ONE `go test` invocation and
# asserts the within-run ordering, which is machine-independent (the
# host's absolute speed cancels out of the ratio). It is also the
# within-run control for the word keys: the fused tier carries a key of
# <= 64 bits in a register from field load to engine probe, the
# interpreter keeps byte keys, so the fused tier must beat the tree
# interpreter by >= 1.50x on every use case, at strictly zero
# allocations. The floor is the lowest of the thirty ratios of ten runs
# of this target (1.60-3.14x, median 2.06x; see EXPERIMENTS.md "Keys in
# registers") less a tenth, so a failure means a table fell off the word
# path or a tier regressed, not benchmark noise. The usual baseline
# comparison also runs, so the committed allocs=0 / ns bounds still apply
# to the fused keys.
bench-fused:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_BENCH)' -benchmem -count=3 . \
		| bin/benchgate -check BENCH_hotpath.json -tol $(BENCH_TOL) \
		-speedup 'BenchmarkHotPath_Fused=BenchmarkHotPath_Interp:1.50'

# Reconfiguration-storm gate: a sharded switch forwards through ~170
# edit commits/s on the epoch-versioned store; BENCH_reconfig.json pins
# drops and stall_us at exactly 0 (strict zero invariants) plus the usual
# allocs/ns bounds. Fixed iteration count so applies-per-run — and with
# it the alloc amortization — is identical on every host.
bench-reconfig:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test ./internal/ipbm/ -run xxx -bench BenchmarkReconfigStormHitless -benchmem -benchtime=50000x -count=3 \
		| bin/benchgate -check BENCH_reconfig.json -tol $(BENCH_TOL)

# Record the reconfig-storm baseline.
bench-reconfig-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test ./internal/ipbm/ -run xxx -bench BenchmarkReconfigStormHitless -benchmem -benchtime=50000x -count=5 \
		| bin/benchgate -write BENCH_reconfig.json \
		-note "50000 frames/run; drops and stall_us are strict zero invariants of the hitless path"

# Flow-accounting benchmarks gated against BENCH_flow.json: the isolated
# Touch/Finish engine cost plus the hot path with accounting ablated
# (FlowOff). Same policy as bench-gate: allocs/op strictly 0, ns/op
# within tolerance.
GATED_FLOW_BENCH = BenchmarkFlowAccount|BenchmarkHotPath_FlowOff

bench-flow:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_FLOW_BENCH)' -benchmem -count=3 . | bin/benchgate -check BENCH_flow.json -tol $(BENCH_TOL)

# Record the flow-accounting baseline (min over 5 runs) and commit
# BENCH_flow.json.
bench-flow-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_FLOW_BENCH)' -benchmem -count=5 . | bin/benchgate -write BENCH_flow.json \
		-note "min of 5 runs; Touch/Finish must stay allocation-free or the always-on default is not viable"

# Drop-attribution benchmarks gated against BENCH_drop.json: the
# always-on loss-forensics path (verdict classification, striped
# ipsa_drop_total cells, capture-ring admission) on a program drop and a
# parse failure. Same policy as bench-gate: allocs/op strictly 0, ns/op
# within tolerance — a drop storm must not allocate.
GATED_DROP_BENCH = BenchmarkDropPath

bench-drop:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_DROP_BENCH)' -benchmem -count=3 . | bin/benchgate -check BENCH_drop.json -tol $(BENCH_TOL)

# Record the drop-attribution baseline (min over 5 runs) and commit
# BENCH_drop.json.
bench-drop-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_DROP_BENCH)' -benchmem -count=5 . | bin/benchgate -write BENCH_drop.json \
		-note "min of 5 runs; attribution is always on, so the drop path must stay allocation-free"

# Differential fuzz: fused executor vs the interpreter on the full switch,
# one packet at a time and in look-ahead batches.
fuzz-diff:
	$(GO) test ./internal/ipbm/ -run xxx -fuzz '^FuzzFusedVsInterp$$' -fuzztime 30s
	$(GO) test ./internal/ipbm/ -run xxx -fuzz '^FuzzFusedBatchVsInterp$$' -fuzztime 30s

# Fuzz the CCM request decoder: arbitrary request streams against a switch
# running the base design must never panic the daemon.
fuzz-ccm:
	$(GO) test ./internal/ipbm/ -run xxx -fuzz '^FuzzCCMRequest$$' -fuzztime 30s

# Differential fuzz for the fused tier's word keys vs the byte keys the
# wide-key funnel builds, on random key plans.
fuzz-fused:
	$(GO) test ./internal/tsp/ -run xxx -fuzz FuzzWordKeyVsPlanned -fuzztime 30s

# Differential fuzz for the LPM engine: insert / replace / delete /
# lookup streams at widths 32, 20 and 128 against a linear-scan
# reference (handles, lookups by byte and by word, Len, Entries).
fuzz-lpm:
	$(GO) test ./internal/match/ -run xxx -fuzz '^FuzzLPM$$' -fuzztime 30s

# Capture CPU and heap profiles of the fused hot path. The equivalent
# for a live switch is `ipbm -cpuprofile cpu.out -memprofile mem.out`;
# see docs/OBSERVABILITY.md.
profile-hotpath:
	$(GO) test -run xxx -bench 'BenchmarkHotPath_Fused$$' -benchtime=200000x \
		-cpuprofile cpu.out -memprofile mem.out .
	@echo "profiles written: cpu.out mem.out (view with: $(GO) tool pprof -top cpu.out)"

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ecmp_insitu
	$(GO) run ./examples/srv6_insitu
	$(GO) run ./examples/flowprobe
	$(GO) run ./examples/int_e2e

# End-to-end health-layer exercise: boot ipbm with a fast sampler, check
# /readyz gating, push traffic until /health shows nonzero rates, run an
# in-situ update over the CCM and assert the switch stays healthy with
# the apply event in the audit trail.
health-smoke:
	$(GO) run ./cmd/healthsmoke

fmt:
	gofmt -w cmd internal examples bench_test.go

vet:
	$(GO) vet ./...

# Static analysis: vet always, staticcheck when installed (CI installs it;
# locally it is optional so a bare toolchain still builds everything).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

clean:
	$(GO) clean ./...
