GO ?= go

# The committed benchmark trajectory: BENCH_<n>.jsonl, one file per PR
# that records a point, each line one run of the benchmark that
# BENCHMARK.json declares (bench/). `make bench` records the current
# point: every workload at seeds 1-5 with tracing absent, then one
# traced pass at seed 1 so the per-layer rungs are on the record
# (`bench -compare` skips traced lines). `make bench-compare
# BENCH_BASE=BENCH_<m>.jsonl` applies BENCHMARK.json's bounds and the
# measured run-to-run spread to two points; it exits 1 when a metric
# is worse.
BENCH_NEW ?= BENCH_24.jsonl

# The committed golden attribution profile: PROFILE_<n>.json, captured
# from the batched Table 2 run below. `make profile` recaptures
# profile.out.json and compares it warn-only against the newest
# golden; `make profile-check` fails when the critical-path length or
# any attribution bucket drifts >15% of the golden critical path.
# -timescale makes simulated network delay manifest as wall time, so
# the network bucket carries signal; committing a new golden is
# `cp profile.out.json PROFILE_<n+1>.json`.
PROFILE_GOLD ?= $(shell $(GO) run ./cmd/profile-check latest)
PROFILE_ARGS ?= -exp table2 -batch -transient 0.02 -timescale 0.05

.PHONY: all test race bench bench-compare profile profile-check

all: test

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	: > $(BENCH_NEW)
	for seed in 1 2 3 4 5; do \
		$(GO) run ./bench -workload all -seed $$seed -record $(BENCH_NEW) || exit 1; \
	done
	$(GO) run ./bench -workload all -seed 1 -trace 1 -record $(BENCH_NEW)

bench-compare:
	$(GO) run ./bench -compare $(BENCH_BASE) $(BENCH_NEW)

# profile captures the batched Table 2 attribution profile and
# compares it (warn-only) against the committed golden.
profile:
	$(GO) run ./cmd/npss-exp $(PROFILE_ARGS) -profile profile.out.json
	@if [ -n "$(PROFILE_GOLD)" ]; then \
		$(GO) run ./cmd/profile-check compare -warn $(PROFILE_GOLD) profile.out.json; \
	else \
		echo "no PROFILE_*.json golden; profile.out.json is the first"; \
	fi

profile-check:
	$(GO) run ./cmd/npss-exp $(PROFILE_ARGS) -profile profile.out.json
	@if [ -n "$(PROFILE_GOLD)" ]; then \
		$(GO) run ./cmd/profile-check compare $(PROFILE_GOLD) profile.out.json; \
	else \
		echo "no PROFILE_*.json golden; nothing to check"; \
	fi
