GO ?= go

.PHONY: build vet vet-cross fmt lint test race gate fuzz bench bench-pipeline smoke perfbench-check verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Cross-architecture vet: the subspace package's scoring passes (in
# AVX) and the mat package's lane kernels (the four-lane Jacobi SVD in
# AVX, the eight-lane LU solve and the LU row update in SSE2) are
# assembly on amd64 and Go elsewhere, and no test here builds the
# other architectures' files, so vet the tree for arm64 to keep that
# path compiling.
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

# The slowest package under -race, internal/powerflow, takes 52-59 s on
# a 2-vCPU VM; the explicit timeout, about three times that, fails a
# hung test in minutes rather than after go test's 10-minute default.
race:
	$(GO) test -race -timeout 3m ./...

# Ratio gate: TestGate (gate_test.go) times 31 interleaved pairs of
# each row's two paths in one process and fails when a row's median
# per-pair ratio passes its bound. The rows, path a / path b:
#   LeadingQuad / four FactorSVD calls, 118x40 matrices         <= 0.42
#   LU.SolveMany / 40 LU.Solve calls, an order-117 factor       <= 0.45
#   Packed.EnergiesTo / one mat.Norm2 per member, 52 rank-one
#     members and the zero subspace on 28 of 118 rows           <= 0.70
#   binary frame / JSON body decode, 8 normal and 8 outage
#     ieee30 samples                                            <= 0.03
#   traced (every trace kept) / untraced binary /v1/ingest of
#     those samples, through the daemon's routes                <= 1.5
#   ieee118 Detect of an outage sample with its line's from-bus
#     dark / the same sample complete                           <= 1.5
#   ieee118 Detect of a normal sample with each bus dark in turn
#     / the same sample complete                                <= 2.2
#   ieee118 DetectBatchContext (Workers 2) of 4 outage and 4
#     normal samples / the same 8 DetectContext calls, both in
#     process CPU time, which sees work on the other core       <= 1.25
# Ratios of paths timed side by side hold across machines;
# nanoseconds do not. The test carries the gate build tag, so
# go test ./... and make race skip it.
gate:
	$(GO) test -tags gate -run '^TestGate' -count=1 -v .

# Fuzz the decode surfaces for FUZZTIME each: model artifacts (a forged
# artifact is re-sealed so the structural checks, not the fingerprint,
# must stop it), patch artifacts (re-stamped against the ieee14 base
# they patch, so the shape checks and the patched model's validation
# must stop them, and an applied patch must boot and detect), binary
# wire frames, trace headers, the data-plane request bodies
# (/v1/detect JSON, binary /v1/ingest frames and binary /v1/detect
# bodies against an ieee14 service: no panic, no 5xx, every 200 body
# decodes), the router's own JSON bodies (/v1/reload and
# /v1/canary/promote against two stub backends: no panic, no 5xx from
# the router, and a body refused with 400 or 413 reaches no backend),
# and the proximity rule on raw float64 score bits, NaN payloads
# included, against its stable-sort oracle, the scoring lanes
# (coefficients, residual rows, rank-one norm pass) on raw float64 bits
# against their Go loops, and the lane kernels on raw float64 matrix
# bits against their one-problem paths: each lane of the four-lane SVD
# against FactorSVD's leading vectors, each right-hand side of the
# eight-lane solve against LU.Solve. Go fuzzes one target per
# invocation.
# Not part of verify; CI runs it after verify.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeModel$$' -fuzztime=$(FUZZTIME) ./internal/detect
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePatch$$' -fuzztime=$(FUZZTIME) ./internal/detect
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzTraceParent$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzDataPlaneBodies$$' -fuzztime=$(FUZZTIME) ./internal/httpserve
	$(GO) test -run='^$$' -fuzz='^FuzzRouterBodies$$' -fuzztime=$(FUZZTIME) ./internal/router
	$(GO) test -run='^$$' -fuzz='^FuzzProximityRule$$' -fuzztime=$(FUZZTIME) ./internal/detect
	$(GO) test -run='^$$' -fuzz='^FuzzPackedEnergies$$' -fuzztime=$(FUZZTIME) ./internal/subspace
	$(GO) test -run='^$$' -fuzz='^FuzzLeadingQuad$$' -fuzztime=$(FUZZTIME) ./internal/mat
	$(GO) test -run='^$$' -fuzz='^FuzzSolveLanes$$' -fuzztime=$(FUZZTIME) ./internal/mat

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
# last step of bench, written over the tracked file. One run records
# the machine's speed at that moment (three runs minutes apart read
# pmunet/montecarlo-100k at 19.9, 22.5 and 35.3 ms), so it does not
# compare two commits; alternate several runs of each to do that.
bench-pipeline:
	$(GO) run ./cmd/benchpipeline -o BENCH_pipeline.json

# Smoke harness: cmd/outagesoak runs the scenario table of
# internal/harness. Every row boots an in-process fleet, drives it over
# real HTTP, and checks its own assertions:
#   serve  ieee14 on one backend: detect byte-identical to the library
#          over the client's frames and one JSON body, retrain reload
#          (generation +1, same fingerprint), binary ingest, X-Trace-Id
#          echo, /metrics counters and monotone buckets, clean graceful
#          shutdown;
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
# gridlint, race tests, the ratio gate, benchmark smoke, smoke harness,
# benchmark module checks.
verify: build vet vet-cross fmt lint race gate bench smoke perfbench-check
