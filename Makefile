# Tier-1 verification gate: everything here must pass before a change
# lands. `make check` is what CI (and ROADMAP.md) means by tier-1.
GO ?= go

.PHONY: check tier1 vet build test race perfbench-check bench bench-wal bench-htap bench-index bench-schemes bench-server bench-prev bench-all fmt fmt-check

check: fmt-check vet build race perfbench-check

# tier1 is the replication-aware spelling of the gate: the full -race
# suite includes the 3-node kill-the-primary failover test
# (internal/repl) and the applier replay/snapshot/promote tests
# (internal/engine), so "tier1 green" means acked commits survive a
# leader crash under the race detector.
tier1: check test

# gofmt cleanliness is part of the gate: a dirty tree means a tool or a
# hand-edit skipped formatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine is fine-grained concurrent; the race detector is part of
# the gate, not an optional extra.
race:
	$(GO) test -race ./...

# perfbench/ is a Go module of its own (it replaces ipa with the
# repository root), so ./... above skips it: vet and test it in place.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# Perf evidence for the current PR: the replicated cluster. A 3-node
# in-process cluster under 16-terminal TPC-B load over the wire
# protocol, reporting follower replication lag (records and bytes,
# sampled from the leader's per-peer shipping state), then the primary
# crash-killed mid-run: failover time until the new leader serves, the
# post-failover phase, and an audit that every acknowledged commit
# survived. Wall-clock numbers (elections run on real timers).
BENCH_OUT ?= BENCH_PR10.json
bench:
	$(GO) run ./cmd/ipabench -exp repl -out $(BENCH_OUT)

# The scalable-WAL benchmarks from the previous PR (evidence in
# BENCH_PR9.json): BenchmarkWALAppend exercises the reservation-based
# append path bare (goroutines {1,4,16} × before/after image sizes
# {16 B, 256 B}, with periodic group flushes and ring truncations;
# -benchmem proves the allocation-free hot path), and
# BenchmarkConcurrentTPCB shows the end-to-end effect on 16-worker
# committed-work ns/op. Wall-clock numbers, so the TPC-B grid runs 3
# counts.
WAL_BENCH_OUT ?= BENCH_PR9.json
bench-wal:
	rm -f /tmp/bench_wal_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkWALAppend' -benchtime 200000x \
		-benchmem ./internal/wal/ >> /tmp/bench_wal_raw.txt
	for i in 1 2 3; do \
		$(GO) test -run xxx -bench 'BenchmarkConcurrentTPCB' -benchtime 3000x \
			-benchmem ./internal/workload/ >> /tmp/bench_wal_raw.txt || exit 1; done
	cat /tmp/bench_wal_raw.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_wal_raw.txt > $(WAL_BENCH_OUT)
	rm -f /tmp/bench_wal_raw.txt

# The HTAP matrix from the previous PR (evidence in BENCH_PR8.json):
# TPC-B writers with a full-table balance scan mixed in, run scan-free
# (baseline), with locking reads (no-wait aborts) and with MVCC
# snapshot reads (lock-free), under uniform and Zipfian skew at 16 real
# terminals. Every completed scan verifies the TPC-B balance-sum
# invariant at its read point, so the run doubles as a consistency
# audit.
HTAP_BENCH_OUT ?= BENCH_PR8.json
bench-htap:
	$(GO) run ./cmd/ipabench -exp htap -out $(HTAP_BENCH_OUT)

# Full-stack YCSB runs over the B+tree (tables, transactions, WAL, real
# terminal goroutines): the Go benchmark harness emits sim ns/op,
# wallns/op, restarts/op and latchwaits/op per (mix, workers) cell as
# JSON. Includes the snapscan-zipf mix (read80/scan20 Zipfian, scans
# resolved through the MVCC version store at a pinned snapshot LSN).
INDEX_BENCH_OUT ?= BENCH_INDEX.json
bench-index:
	rm -f /tmp/bench_index_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkIndexYCSB' -benchtime 2000x \
		./internal/workload/ >> /tmp/bench_index_raw.txt
	cat /tmp/bench_index_raw.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_index_raw.txt > $(INDEX_BENCH_OUT)
	rm -f /tmp/bench_index_raw.txt

# The storage-scheme comparison from the previous PR (evidence in
# BENCH_PR6.json): TPC-B and TATP under oop vs ipa vs pdl.
SCHEMES_BENCH_OUT ?= BENCH_PR6.json
bench-schemes:
	$(GO) run ./cmd/ipabench -exp schemes -out $(SCHEMES_BENCH_OUT)

# The network service benchmark from the previous PR (evidence in
# BENCH_PR5.json): end-to-end TPC-B over the wire protocol across a
# connections × pipelining-depth grid, 5 counts recorded as JSON.
SERVER_BENCH_OUT ?= BENCH_PR5.json
bench-server:
	rm -f /tmp/bench_raw.txt
	for i in 1 2 3 4 5; do \
		$(GO) test -run xxx -bench 'BenchmarkServerTPCB' -benchtime 2000x \
			-benchmem ./internal/server/ >> /tmp/bench_raw.txt || exit 1; done
	cat /tmp/bench_raw.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_raw.txt > $(SERVER_BENCH_OUT)
	rm -f /tmp/bench_raw.txt

bench-prev:
	$(GO) test -run xxx -bench 'BenchmarkPageDiff$$|BenchmarkFlashProgramDelta$$' \
		-benchmem -count=5 . > /tmp/bench_prev.txt
	$(GO) test -run xxx -bench 'BenchmarkBufferGet' \
		-benchmem -count=5 ./internal/buffer/ >> /tmp/bench_prev.txt
	for i in 1 2 3 4 5; do \
		$(GO) test -run xxx -bench 'BenchmarkConcurrentTPCB' -benchtime 3000x \
			-benchmem ./internal/workload/ >> /tmp/bench_prev.txt || exit 1; done
	$(GO) test -run xxx -bench 'BenchmarkGCInterference' -benchtime 1000000x \
		-count=5 ./internal/noftl/ >> /tmp/bench_prev.txt
	cat /tmp/bench_prev.txt

bench-all:
	$(GO) test -bench=. -benchmem -run xxx ./...

fmt:
	gofmt -l -w .
