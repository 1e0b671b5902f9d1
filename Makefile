GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race loc knobs allocs bench bench-smoke bench-all vet fmt lint deadcode cover experiments experiments-check fleettrace-smoke fuzz-smoke nemesis-smoke

all: build lint deadcode test experiments-check fuzz-smoke nemesis-smoke fleettrace-smoke bench-smoke

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

# knobs is the tracked number of options of the stack: the exported
# fields of its config types, counted from `go doc`. One definition, so
# "knobs" in CHANGES.md always means this number (86 over 15 types
# before the fields no command set became constants).
KNOB_TYPES = transport/tcptransport:Config overlay:Config overlay:Loss \
	overlay:Byzantine overlay:WaveConfig node:Config core:Options \
	core:Timeouts liveness:Config antientropy:Config \
	sampling:Config rtt:Config guard:Policy
knobs:
	@for t in $(KNOB_TYPES); do $(GO) doc -all ./internal/$${t%%:*} $${t##*:} || exit 1; done | \
		awk '/^type [A-Za-z]+ struct \{$$/ {f=1; next} /^\}/ {f=0} \
			f && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) {s=substr($$0, 1, RLENGTH); n += gsub(/,/, "", s) + 1} \
			END {print n + 0}'

# allocs is the tracked allocation cost of keeping and growing a
# network: the allocations per node per 50 ms pump tick of a converged,
# fault-free 128-node simulated network, on the package defaults, on
# node.Shipped, and on node.Shipped with a sink that discards every
# event, as TestSteadyTickAllocBudget measures and bounds them;
# and the allocations and KiB per join of 64 concurrent joins into 256
# nodes on the bare protocol, as TestJoinWaveAllocBudget does; and the
# allocations per member of building a 512-node b=16 network with
# global knowledge, and the KiB per member that network keeps live at
# d=8 and at d=40, as TestBuildDirectAllocs measures them. One
# definition, so "allocs" in CHANGES.md always means these eight numbers
# (0.37 and 0.56 per node-tick on the defaults and on node.Shipped,
# both with a sink, and 0.31 on node.Shipped without one, before events
# named peers by ID and probes came out of batches; 1.93 and 3.86
# per node-tick before every part returned a buffer it
# owns; 75.6 KiB per join before snapshots held only their filled
# entries; 90 per join and 18.2 per member built before control
# messages were boxed once and each reverse set became a sorted slice;
# 9.0 and 30.6 KiB live per member before tables held only their filled
# entries).
allocs:
	@bash -o pipefail -c '$(GO) test -count=1 -run "^(TestSteadyTickAllocBudget|TestJoinWaveAllocBudget|TestBuildDirectAllocs)$$" -v ./internal/overlay | \
		sed -n -e "s/.*: \([a-z+]*\): \([0-9.]*\) allocations per node-tick$$/\1 \2/p" \
			-e "s/.*: \([0-9.]*\) allocations and \([0-9.]*\) KiB per join$$/join-allocs \1\njoin-kib \2/p" \
			-e "s/.*: b=16: \([0-9.]*\) allocations per member to build, .*/build-allocs \1/p" \
			-e "s/.*: b=16 d=\([0-9]*\): \([0-9.]*\) KiB live per member built$$/build-kib-d\1 \2/p"'

# bench runs the repository benchmark (./bench, BENCHMARK.json) at its
# own run length, one workload after another; each prints its metrics as
# one JSON line. `bench-all` sweeps every `go test` micro-benchmark in
# the module without recording.
bench:
	$(GO) run ./bench --workload sim_join_paper
	$(GO) run ./bench --workload sim_maintain_crash
	$(GO) run ./bench --workload sim_lookup
	$(GO) run ./bench --workload tcp_join_fleet

bench-all:
	$(GO) test -bench . -benchmem ./...

# bench-smoke vets the repository benchmark (./bench, BENCHMARK.json) and
# runs its three simulated workloads and the loopback TCP fleet for two
# seconds each. It gates on the harness's own correctness checks —
# Theorems 1-3 on the paper-scale join wave, consistency and zero false
# declarations on crash repair, every lookup found and the hop model at
# full scale over 4096 tables, zero dead letters and Theorem 1 over the
# fleet's tables — through the exit code; the numbers of so short a run
# mean nothing. The fleet needs 16384 file descriptors.
bench-smoke:
	$(GO) vet ./bench
	$(GO) run ./bench --workload sim_maintain_crash --seconds 2
	$(GO) run ./bench --workload sim_join_paper --seconds 2
	$(GO) run ./bench --workload sim_lookup --seconds 2
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

# deadcode keeps every production path one that a command runs: it
# fails when a function under internal/ is reached by no package main
# (cmd/* and bench, by the linker's -dumpdep edges) and is not listed,
# with the reason a test needs it, in deadcode.allow, and when an entry
# there is stale. See scripts/deadcode.sh.
deadcode:
	bash scripts/deadcode.sh

cover:
	$(GO) test -cover ./internal/...

# Regenerate every table and figure of the paper's evaluation and every
# §7 scenario (E1-E18) at full size.
experiments:
	$(GO) run ./cmd/paper all

# experiments-check is the full-size half of cmd/paper's golden test:
# `go test` pins every subcommand byte for byte but runs the §5.2 waves
# (E2/E3), E11's churn schedule and the E18 gray contrast at -small, so
# that tier-1 and the race pass do not pay for n=7192, n=1000 and n=64
# twice over; this runs them at full size (~35 s on two cores, 30 s of
# it the full churn schedule) and diffs E1-E18
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
# re-executes it bit-identically. The sweep runs verbose, and its stdout,
# which is bit-reproducible, is also kept in /tmp/hypercube-nemesis/sweep.txt
# (uploaded on every CI run), so a claim that a change leaves the sweep
# byte-identical can be checked against the parent's run.
nemesis-smoke:
	mkdir -p /tmp/hypercube-nemesis
	bash -o pipefail -c '$(GO) run ./cmd/nemesis -seeds 0..299 -n 32 -b 16 -d 4 -steps 8 -v \
		-out /tmp/hypercube-nemesis | tee /tmp/hypercube-nemesis/sweep.txt'
