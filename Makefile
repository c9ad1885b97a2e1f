# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race soak bench fuzz-diff fuzz-ccm fuzz-fused fuzz-match fuzz-int profile-hotpath cover experiments examples fmt vet lint clean

all: build test

build:
	$(GO) build ./...

# Tier 1, with every oracle row of the internal/testbed harness: the
# differentials, ipbm vs pisa and the prefix verdicts.
test:
	$(GO) test ./...

# The same tests, oracle rows included, under the race detector.
race:
	$(GO) test -race ./...

# Race soak over the packet path, every test of every package on it, twice:
# the lane lifecycle and its two drivers (driver parity, conservation
# across Shutdown), the lock-free lookup snapshot and pools, the traffic
# manager, the ring ports' port-to-lane hand-off, the flow tables' hold
# with two writers on one lane, racing readers and clash evictions, and
# the loss-forensics ledger with every drop reason firing at once under a
# hitless edit storm, commits failed at every step under sharded traffic
# (TestCommitFaultsUnderTrafficHitless), pisa's one-pointer rebuilds
# beside concurrent ProcessPacket (TestPISABuildsReachPacketsWhole), and
# the table handles every stage binds: the lock-free match engines with
# readers beside writers and the mem.Table hit/miss counters.
soak:
	$(GO) test -race -count=2 ./internal/ipbm/ ./internal/pisa/ ./internal/pipeline/ ./internal/dataplane/ ./internal/tsp/ ./internal/netio/ ./internal/flowstat/ ./internal/telemetry/ ./internal/mem/ ./internal/match/

bench:
	$(GO) test -bench=. -benchmem ./...

# Every fuzz target caps input minimisation at 1 s: at the default 60 s a
# 30 s budget goes mostly to minimising 2 KB inputs, at 0 execs/s.
#
# Differential fuzz: fused executor vs the interpreter on the full switch,
# one packet at a time and in stage-major batches over large tables.
fuzz-diff:
	$(GO) test ./internal/ipbm/ -run xxx -fuzz '^FuzzFusedVsInterp$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/ipbm/ -run xxx -fuzz '^FuzzFusedBatchVsInterp$$' -fuzztime 30s -fuzzminimizetime 1s

# Fuzz the CCM: arbitrary request streams against a switch running the
# ECMP design must never panic the daemon, and the CCM codec must accept,
# refuse, decode and re-encode every stream exactly as encoding/json does.
fuzz-ccm:
	$(GO) test ./internal/ipbm/ -run xxx -fuzz '^FuzzCCMRequest$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/ctrlplane/ -run xxx -fuzz '^FuzzCCMCodec$$' -fuzztime 30s -fuzzminimizetime 1s

# Differential fuzz for the fused tier's word keys vs the byte keys the
# wide-key funnel builds, on random key plans.
fuzz-fused:
	$(GO) test ./internal/tsp/ -run xxx -fuzz FuzzWordKeyVsPlanned -fuzztime 30s -fuzzminimizetime 1s

# Fuzz the INT trailer decoder the sink runs on every INT-on frame:
# arbitrary bytes never panic Hops, TrailerLen, LastHopOut, Parse or
# Strip, an accepted trailer accounts for every byte of the frame, and the
# decoded hops stamped onto the payload again parse back to themselves.
fuzz-int:
	$(GO) test ./internal/intmd/ -run xxx -fuzz '^FuzzIntmdTrailer$$' -fuzztime 30s -fuzzminimizetime 1s

# Differential fuzz for the match engines. The LPM engine: insert /
# replace / delete / lookup streams at widths 32, 20 and 128 against a
# linear-scan reference. The selector: member insert / delete / pick
# streams at group widths 16, 64 and 96 against a map of slices, stale
# handles and ErrFull included. Both hold handles, picks or lookups by
# byte and by word, Len and Entries to their model.
fuzz-match:
	$(GO) test ./internal/match/ -run xxx -fuzz '^FuzzLPM$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/match/ -run xxx -fuzz '^FuzzSelector$$' -fuzztime 30s -fuzzminimizetime 1s

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

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Static analysis: vet and gofmt always, staticcheck when installed (CI
# installs it; locally it is optional so a bare toolchain still builds
# everything). Any file gofmt would rewrite fails the target.
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed (run make fmt):"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

clean:
	$(GO) clean ./...
