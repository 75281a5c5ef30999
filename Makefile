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
BENCH_NEW ?= BENCH_43.jsonl

.PHONY: all test race bench bench-compare

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
