GO ?= go

.PHONY: build vet vet-cross fmt lint test race fuzz bench bench-pipeline bench-serve bench-serve-smoke smoke perfbench-check verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Cross-architecture vet: the subspace package's rank-one residual pass
# is SSE2 assembly on amd64 and Go elsewhere, and no test here runs the
# Go build of it, so vet the tree for arm64 to keep that path compiling.
vet-cross:
	GOARCH=arm64 $(GO) vet ./...

# gofmt gate: fails, listing the files, when any tracked .go file
# (testdata fixtures included) is not gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# gridlint: the repo's own analyzers (cmd/gridlint, internal/analysis),
# run once: it writes the machine-readable report (suppressed findings
# included, with the reasons that silence them) to gridlint.json, which
# CI uploads, prints unsuppressed findings to stderr, and fails on any.
# Suppress an intentional finding with
#   //gridlint:ignore <analyzer> <reason>
lint:
	$(GO) run ./cmd/gridlint -json ./... > gridlint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz the decode surfaces for FUZZTIME each: model artifacts (a forged
# artifact is re-sealed so the structural checks, not the fingerprint,
# must stop it), patch artifacts (re-stamped against the ieee14 base
# they patch, so the shape checks and the patched model's validation
# must stop them, and an applied patch must boot and detect), binary
# wire frames, trace headers, and the data-plane request bodies
# (/v1/detect JSON and binary /v1/ingest frames against an ieee14
# service: no panic, no 5xx, every 200 body decodes), and the
# proximity rule on raw float64 score bits, NaN payloads included,
# against its stable-sort oracle, and the packed residual kernel on raw
# float64 vector bits against its portable Go pass. Go fuzzes one target
# per invocation.
# Not part of verify; CI runs it after verify.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeModel$$' -fuzztime=$(FUZZTIME) ./internal/detect
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePatch$$' -fuzztime=$(FUZZTIME) ./internal/detect
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzTraceParent$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzDataPlaneBodies$$' -fuzztime=$(FUZZTIME) ./internal/httpserve
	$(GO) test -run='^$$' -fuzz='^FuzzProximityRule$$' -fuzztime=$(FUZZTIME) ./internal/detect
	$(GO) test -run='^$$' -fuzz='^FuzzPackedEnergies$$' -fuzztime=$(FUZZTIME) ./internal/subspace

# One-iteration benchmark smoke: catches benchmarks that panic or no
# longer compile without paying for stable timings. The pipeline benches
# additionally run at -cpu 1,4 (sequential vs parallel, identical
# output), and benchpipeline writes this run's timings, the whole 14 …
# 1000-bus power-flow scaling ladder included, to the ignored
# BENCH_pipeline.run.json (CI uploads it), so verify leaves the worktree
# clean. The telemetry hot path (histogram observe, counter inc,
# trace-ID mint) gets enough iterations for a readable ns/op, since its
# whole contract is "cheap enough to leave on".
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run='^$$' -bench=Pipeline -benchtime=1x -cpu 1,4 .
	$(GO) test -run='^$$' -bench='Histogram|CounterInc|NewTraceID' -benchtime=10000x ./internal/obs
	$(GO) run ./cmd/benchpipeline -o BENCH_pipeline.run.json

# Regenerate the committed BENCH_pipeline.json: the same run as the
# last step of bench, written over the tracked file.
bench-pipeline:
	$(GO) run ./cmd/benchpipeline -o BENCH_pipeline.json

# Serving benchmark: open-loop QPS tiers against the real HTTP handler
# in both ingest modes (JSON and binary wire frames), plus the ingress
# decode comparison. Writes BENCH_serve.json; the smoke variant runs one
# abbreviated tier and skips the file, but still asserts the binary
# decode is allocation-free and at least 2x faster than JSON.
bench-serve:
	$(GO) run ./cmd/benchserve -o BENCH_serve.json

bench-serve-smoke:
	$(GO) run ./cmd/benchserve -smoke

# Smoke harness: cmd/outagesoak runs the scenario table of
# internal/harness. Every row boots an in-process fleet, drives it over
# real HTTP, and checks its own assertions:
#   serve  ieee14 on one backend: detect byte-identical to the library,
#          retrain reload (generation +1, same fingerprint), binary
#          ingest, X-Trace-Id echo, /metrics counters and monotone
#          buckets, clean graceful shutdown;
#   scale  the serve checks on synth300, over the sparse power flow;
#   fleet  registry, two primaries booted by fingerprint, a full-shadow
#          canary, a primary killed mid-stream with zero dropped
#          detects, and a gated promotion exercising a 304 pull;
#   soak   a traced two-primary fleet under labelled detect and binary
#          ingest traffic through rolling reloads, a patch broadcast, a
#          kill and a same-address restart. Writes SOAK_report.json and
#          asserts zero errors, >= 0.9 isolation accuracy, and a merged
#          multi-hop trace.
smoke:
	$(GO) run ./cmd/outagesoak

# The benchmark module: perfbench/ is a Go module of its own, so the
# root build and tests skip it. Vet it and run its short tests against
# this checkout's library, so an API change that breaks the benchmark
# fails verify. Offline, like perfbench/run.sh.
perfbench-check:
	cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off && $(GO) vet . && $(GO) test -short .

# The tier-1 gate (see ROADMAP.md): build, vet (also for arm64), gofmt,
# gridlint, race tests, benchmark smoke, smoke harness, benchmark module
# checks.
verify: build vet vet-cross fmt lint race bench bench-serve-smoke smoke perfbench-check
