# Correctness-tooling entry points. CI (.github/workflows/ci.yml) runs the
# same commands; `make check` is the pre-push aggregate.

GO ?= go

.PHONY: build fmt perfbench test race lint lint-baseline lint-accept vet fuzz audit fault-stress bench bench-smoke bench-diff profile check

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
## the sharded serving layer, the HTTP front end, and the imflow-serve
## command (its SIGTERM test drives the whole front end through both
## Shutdowns).
race:
	$(GO) test -race ./internal/maxflow/... ./internal/retrieval/... ./internal/serve/... ./internal/httpd/... ./internal/sim/... ./internal/fault/... ./cmd/imflow-serve/

## lint: the repository's seven custom analyzers (sattaint, lockguard,
## noalloc, erruse, directive, plus the module-level transitive noalloc
## and ctxleak), each kept because it catches a seeded bug no test, vet
## or race run does (DESIGN.md §7). The roster lives in
## internal/analysis/roster; `-list` prints it, `-json` emits the
## machine-readable record stream. `make vet` is the go vet gate.
lint:
	$(GO) run ./cmd/imflow-lint ./...

## lint-baseline: the CI regression gate — fail when the findings,
## suppressed ones included, differ from the committed lint_baseline.json
## in either direction: a new finding fails, and so does a stale record
## no current finding matches. Records match by file, analyzer and
## message, so line drift does not churn the gate.
lint-baseline:
	$(GO) run ./cmd/imflow-lint -baseline lint_baseline.json ./...

## lint-accept: rewrite lint_baseline.json with the current findings.
## Run after fixing findings (to shrink the baseline) or after a reviewed
## decision to tolerate a new one; the diff is part of the code review.
lint-accept:
	$(GO) run ./cmd/imflow-lint -json -baseline lint_baseline.json -accept ./...

vet:
	$(GO) vet ./...

## fuzz: short exploratory runs of all four fuzz targets (seed corpora
## under testdata/fuzz/ always replay in plain `make test`).
fuzz:
	$(GO) test -fuzz=FuzzReadProblem -fuzztime=30s ./internal/encoding/
	$(GO) test -fuzz=FuzzSolverConsensus -fuzztime=30s ./internal/retrieval/
	$(GO) test -fuzz=FuzzDecodeQuery -fuzztime=30s ./internal/httpd/
	$(GO) test -fuzz=FuzzDecodeSubmit -fuzztime=30s ./internal/httpd/

## audit: re-run the solver tests with the imflow_audit build tag, arming
## the max-flow = min-cut certificate checks after every engine run and
## the label check after every push-relabel Resume. sim is included: it
## drives cold, warm and failover solves through pr-binary and is the
## reference perfbench's replay is compared against.
audit:
	$(GO) test -tags imflow_audit ./internal/maxflow/... ./internal/retrieval/... ./internal/serve/... ./internal/sim/... ./internal/integration/...

## fault-stress: the fault-injection stress gate — seeded chaos schedules
## through the simulator and the concurrent server under the race
## detector, then again with the audit tag so every degraded solve and
## failover re-solve carries a max-flow certificate.
fault-stress:
	$(GO) test -race -count=3 ./internal/fault/
	$(GO) test -race -count=3 -run 'Chaos|Failover|MarkFailed|CutSearch|Fault|Drain|Deadline|PartialServe|Warm|Compact' ./internal/sim/ ./internal/serve/ ./internal/retrieval/ ./internal/maxflow/...
	$(GO) test -race -count=3 -run 'Cancel|Disconnect|Shutdown|Shed|Stress|Deadline' ./internal/httpd/ ./internal/serve/
	$(GO) test -tags imflow_audit -run 'Chaos|Failover|MarkFailed|CutSearch|Fault|PartialServe|Warm|Compact' ./internal/sim/ ./internal/serve/ ./internal/integration/ ./internal/retrieval/ ./internal/maxflow/...

## bench: regenerate BENCH_retrieval.json — the steady-state integrated
## solve loop (ns/op, allocs/op, work counters) across every engine on the
## paper-scale grid, plus conserved failover repair against a fresh masked
## solve. See EXPERIMENTS.md for the field reference.
bench:
	$(GO) run ./cmd/imflow-bench -out BENCH_retrieval.json

## bench-smoke: what CI's bench-smoke job runs on every push. The small
## solver configuration is written under /tmp/bench-smoke (never over the
## committed BENCH_retrieval.json) and held to the committed file's
## machine-independent allocation gates; then every root-package
## benchmark body runs once.
bench-smoke:
	$(GO) run ./cmd/imflow-bench -smoke -out /tmp/bench-smoke/BENCH_retrieval.json
	$(GO) run ./cmd/imflow-bench-diff -allocs-only \
		-old BENCH_retrieval.json -new /tmp/bench-smoke/BENCH_retrieval.json
	$(GO) test -run '^$$' -bench . -benchtime 1x .

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

## bench-diff: run a fresh solver benchmark into a scratch directory and
## compare it against the committed BENCH_retrieval.json. Fails on a >25%
## ns/op regression or any allocs/op regression for the sequential
## engines. Wall-clock gates assume the same machine as the committed
## baseline; CI uses the machine-independent -allocs-only mode instead.
bench-diff:
	$(GO) run ./cmd/imflow-bench -out /tmp/imflow-bench-new/BENCH_retrieval.json
	$(GO) run ./cmd/imflow-bench-diff \
		-old BENCH_retrieval.json -new /tmp/imflow-bench-new/BENCH_retrieval.json

check: build fmt vet lint-baseline test audit race perfbench
