# Correctness-tooling entry points. CI (.github/workflows/ci.yml) runs the
# same commands; `make check` is the pre-push aggregate.

GO ?= go

.PHONY: build fmt perfbench test race lint lint-baseline lint-accept vet fuzz audit fault-stress bench bench-smoke bench-serve bench-serve-smoke bench-fault bench-fault-smoke bench-http bench-http-smoke bench-diff profile check

build:
	$(GO) build ./...

## fmt: fail if any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

## perfbench: vet and test the benchmark module, which imports the
## internal packages but is a separate module that `go build ./...` at the
## root never compiles.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

test:
	$(GO) test ./...

## race: race-detector stress over the lock-free solver, its callers,
## the sharded serving layer, the HTTP front end, and the analysis
## framework's driver tests.
race:
	$(GO) test -race ./internal/maxflow/... ./internal/retrieval/... ./internal/serve/... ./internal/httpd/... ./internal/sim/... ./internal/fault/... ./internal/analysis/...

## lint: the repository's custom analyzers (microsfloat, satarith,
## atomicfield, lockguard, noalloc, directive, plus the module-level
## lockorder, ctxleak, and transitive noalloc) and a curated go vet set —
## see cmd/imflow-lint. `-json` emits the machine-readable record stream.
lint:
	$(GO) run ./cmd/imflow-lint ./...

## lint-baseline: the CI regression gate — fail only on findings that are
## new relative to the committed lint_baseline.json (matched by file,
## analyzer, and message, so line drift does not churn the gate).
lint-baseline:
	$(GO) run ./cmd/imflow-lint -baseline lint_baseline.json ./...

## lint-accept: rewrite lint_baseline.json with the current findings.
## Run after fixing findings (to shrink the baseline) or after a reviewed
## decision to tolerate a new one; the diff is part of the code review.
lint-accept:
	$(GO) run ./cmd/imflow-lint -json -baseline lint_baseline.json -accept ./...

vet:
	$(GO) vet ./...

## fuzz: short exploratory runs of both fuzz targets (seed corpora under
## testdata/fuzz/ always replay in plain `make test`).
fuzz:
	$(GO) test -fuzz=FuzzReadProblem -fuzztime=30s ./internal/encoding/
	$(GO) test -fuzz=FuzzSolverConsensus -fuzztime=30s ./internal/retrieval/
	$(GO) test -fuzz=FuzzDecodeQuery -fuzztime=30s ./internal/httpd/
	$(GO) test -fuzz=FuzzDecodeSubmit -fuzztime=30s ./internal/httpd/

## audit: re-run the solver tests with the imflow_audit build tag, arming
## the max-flow = min-cut certificate checks after every engine run.
audit:
	$(GO) test -tags imflow_audit ./internal/maxflow/... ./internal/retrieval/... ./internal/serve/... ./internal/integration/...

## fault-stress: the fault-injection stress gate — seeded chaos schedules
## through the simulator and the concurrent server under the race
## detector, then again with the audit tag so every degraded solve and
## failover re-solve carries a max-flow certificate.
fault-stress:
	$(GO) test -race -count=3 ./internal/fault/
	$(GO) test -race -count=3 -run 'Chaos|Failover|Fault|Drain|Deadline|PartialServe|Warm|Compact|BatchPool' ./internal/sim/ ./internal/serve/ ./internal/retrieval/ ./internal/maxflow/...
	$(GO) test -race -count=3 -run 'Cancel|Disconnect|Shutdown|Shed|Stress|Deadline' ./internal/httpd/ ./internal/serve/
	$(GO) test -tags imflow_audit -run 'Chaos|Failover|Fault|PartialServe|Warm|Compact|BatchPool' ./internal/sim/ ./internal/serve/ ./internal/integration/ ./internal/retrieval/ ./internal/maxflow/...

## bench: regenerate BENCH_retrieval.json — the steady-state integrated
## solve loop (ns/op, allocs/op, work counters) across every engine on the
## paper-scale grid. See EXPERIMENTS.md for the field reference.
bench:
	$(GO) run ./cmd/imflow-bench -out BENCH_retrieval.json

## bench-smoke: the small configuration CI runs on every push.
bench-smoke:
	$(GO) run ./cmd/imflow-bench -smoke -out BENCH_retrieval.json

## bench-serve: regenerate BENCH_serve.json — open-loop throughput of the
## concurrent serving layer (qps, latency percentiles, worker-scaling
## curve) against the timed sequential sim replay baseline.
bench-serve:
	$(GO) run ./cmd/imflow-serve-bench -out BENCH_serve.json

bench-serve-smoke:
	$(GO) run ./cmd/imflow-serve-bench -smoke -out BENCH_serve.json

## bench-fault: regenerate BENCH_fault.json — conserved-flow failover
## repair latency vs a fresh masked re-solve at 1..2 failed disks, and
## degraded serving throughput (qps, p99) at 0..2 failed disks.
bench-fault:
	$(GO) run ./cmd/imflow-serve-bench -fault -out BENCH_fault.json

bench-fault-smoke:
	$(GO) run ./cmd/imflow-serve-bench -fault -smoke -out BENCH_fault.json

## bench-http: regenerate BENCH_http.json — overload resilience of the
## HTTP front end: per shed policy, closed-loop calibration then steady /
## sustained-overload / flash-crowd phases against a live loopback server
## (offered vs served qps, shed rate, latency percentiles, evictions).
bench-http:
	$(GO) run ./cmd/imflow-serve-bench -http -out BENCH_http.json

bench-http-smoke:
	$(GO) run ./cmd/imflow-serve-bench -http -smoke -out BENCH_http.json

## profile: CPU + allocation profiles of the steady-state retrieval suite
## on one paper-scale cell, written under /tmp/imflow-prof for
## `go tool pprof`. The cell and repeat count keep the run under a minute
## while still exercising the CSR hot loops.
profile:
	mkdir -p /tmp/imflow-prof
	$(GO) run ./cmd/imflow-bench -n 60 -queries 10 -repeats 4 \
		-cpuprofile /tmp/imflow-prof/cpu.pprof -memprofile /tmp/imflow-prof/allocs.pprof \
		-out /tmp/imflow-prof/BENCH_retrieval.json
	@echo "profiles in /tmp/imflow-prof: go tool pprof /tmp/imflow-prof/cpu.pprof"

## bench-diff: run fresh benchmarks into a scratch directory and compare
## them against the committed BENCH files. Fails on a >25% ns/op (or qps)
## regression or any allocs/op regression for the sequential engines.
## Wall-clock gates assume the same machine as the committed baselines;
## CI uses the machine-independent -allocs-only mode instead.
bench-diff:
	$(GO) run ./cmd/imflow-bench -out /tmp/imflow-bench-new/BENCH_retrieval.json
	$(GO) run ./cmd/imflow-serve-bench -out /tmp/imflow-bench-new/BENCH_serve.json
	$(GO) run ./cmd/imflow-serve-bench -fault -out /tmp/imflow-bench-new/BENCH_fault.json
	$(GO) run ./cmd/imflow-serve-bench -http -out /tmp/imflow-bench-new/BENCH_http.json
	$(GO) run ./cmd/imflow-bench-diff \
		-old BENCH_retrieval.json -new /tmp/imflow-bench-new/BENCH_retrieval.json \
		-old-serve BENCH_serve.json -new-serve /tmp/imflow-bench-new/BENCH_serve.json \
		-old-fault BENCH_fault.json -new-fault /tmp/imflow-bench-new/BENCH_fault.json \
		-old-http BENCH_http.json -new-http /tmp/imflow-bench-new/BENCH_http.json

check: build fmt vet lint-baseline test audit race perfbench
