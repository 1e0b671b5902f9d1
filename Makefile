GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race loc bench bench-smoke bench-all vet fmt lint cover experiments experiments-check fleettrace-smoke fuzz-smoke nemesis-smoke

all: build lint test experiments-check fuzz-smoke nemesis-smoke fleettrace-smoke bench-smoke

build:
	$(GO) build ./...

# The default test path includes vet and a race-detector pass over the
# whole module — new packages (anti-entropy engine, partition plumbing)
# get race coverage automatically instead of waiting to be listed.
# -shuffle=on randomizes test order so inter-test state leaks surface
# instead of hiding behind a lucky declaration order.
test: vet
	$(GO) test -shuffle=on ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# loc is the tracked size of the system: non-test Go lines outside the
# benchmark harness. One definition, so "net line count" in CHANGES.md
# always means this number (22,649 before internal/node was extracted).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# bench runs the repository benchmark (./bench, BENCHMARK.json) at its
# own run length, one workload after another; each prints its metrics as
# one JSON line. `bench-all` sweeps every `go test` benchmark in the
# module — the ablation benchmarks EXPERIMENTS.md cites from
# bench_test.go (E1-E18 themselves are `paper`, see experiments) and the
# few micro-benchmarks ./bench has no probe for — without recording.
bench:
	$(GO) run ./bench --workload sim_join_paper
	$(GO) run ./bench --workload sim_maintain_crash
	$(GO) run ./bench --workload sim_lookup
	$(GO) run ./bench --workload tcp_join_fleet

bench-all:
	$(GO) test -bench . -benchmem ./...

# bench-smoke vets the repository benchmark (./bench, BENCHMARK.json) and
# runs its two simulated workloads and the loopback TCP fleet for two
# seconds each. It gates on the harness's own correctness checks —
# Theorems 1-3 on the paper-scale join wave, consistency and zero false
# declarations on crash repair, zero dead letters and Theorem 1 over the
# fleet's tables — through the exit code; the numbers of so short a run
# mean nothing. The fleet needs 16384 file descriptors.
bench-smoke:
	$(GO) vet ./bench
	$(GO) run ./bench --workload sim_maintain_crash --seconds 2
	$(GO) run ./bench --workload sim_join_paper --seconds 2
	ulimit -n 16384; $(GO) run ./bench --workload tcp_join_fleet --seconds 2

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# lint fails on unformatted files (gofmt -l prints them; grep turns any
# output into a non-zero exit) and runs vet with the two analyzers that
# are off by default in `go vet` but catch real protocol-loop bugs:
# unreachable code after give-up branches and lost context cancels in
# the transport.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -unreachable -lostcancel ./...

cover:
	$(GO) test -cover ./internal/...

# Regenerate every table and figure of the paper's evaluation and every
# §7 scenario (E1-E18) at full size.
experiments:
	$(GO) run ./cmd/paper all

# experiments-check is the full-size half of cmd/paper's golden test:
# `go test` pins every subcommand byte for byte but runs the §5.2 waves
# (E2/E3), the E11 churn phases and the E18 gray contrast at -small, so
# that tier-1 and the race pass do not pay for n=7192, n=1000 and n=64
# twice over; this runs them at full size (~15 s) and diffs E1-E18
# against the committed text. Refresh a golden by redirecting the
# command's output into it.
experiments-check:
	bash -o pipefail -c '$(GO) run ./cmd/paper all | diff -u cmd/paper/testdata/all.golden -'

# fuzz-smoke gives each hostile-input fuzz target a short budget
# (override with FUZZTIME=5m for a real hunt): ID/suffix parsing, the
# wire decoder behind the TCP transport, the protocol machine's Deliver
# path, and snapshot validation against its suffix-building oracle. Any
# crasher fails the build.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME) ./internal/id
	$(GO) test -run '^$$' -fuzz FuzzParseSuffix -fuzztime $(FUZZTIME) ./internal/id
	$(GO) test -run '^$$' -fuzz FuzzBinaryDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzMachineDeliver -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzValidateMatchesOracle -fuzztime $(FUZZTIME) ./internal/table

# fleettrace-smoke proves cross-node causal tracing end to end at a
# CI-friendly size: E17's flash crowd at -small (64 joiners into 64
# nodes, E19's size; the committed schedule
# cmd/paper/testdata/flashcrowd-small.json run by the nemesis executor)
# writes a fleet JSONL trace, and `trace report` must reconstruct at
# least 95% of the joins as complete cross-node span trees (exit
# non-zero below).
fleettrace-smoke:
	$(GO) run ./cmd/paper flashcrowd -small -trace /tmp/hypercube-fleettrace-smoke.jsonl
	$(GO) run ./cmd/trace report -require-joins 0.95 /tmp/hypercube-fleettrace-smoke.jsonl

# nemesis-smoke is the deterministic chaos-search gate: sweep a pinned
# seed range of generated fault schedules (composed join waves, crashes,
# partitions, loss bursts, clock pauses, restart-from-persist) at a
# CI-friendly size (300 seeds, ~30 s; seed 253's chained splits found
# the short-heal generator bug), auditing Definition 3.8 consistency,
# sampled reachability, and the false-declaration watcher at every
# quiescence point. On any violation the driver delta-debugs the schedule to a
# minimal repro-<seed>.json under /tmp/hypercube-nemesis (uploaded as a
# CI artifact) and exits non-zero; `go run ./cmd/nemesis -replay <file>`
# re-executes it bit-identically.
nemesis-smoke:
	$(GO) run ./cmd/nemesis -seeds 0..299 -n 32 -b 16 -d 4 -steps 8 \
		-out /tmp/hypercube-nemesis
