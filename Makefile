GO ?= go

# Benchmark trajectory file produced by `make bench`. It has no default: a
# trajectory point is never silently replaced, so name the next one
# (`make bench BENCH_OUT=BENCH_<n>.json`): see docs/PERFORMANCE.md.
BENCH_OUT ?=

# Packages whose benchmarks `make bench` and `make bench-smoke` run: the
# E1..E10 families at the root, the orb/cdr micro-benches and the QoS
# transport modules' per-message costs.
BENCH_PKGS = . ./internal/orb ./internal/cdr ./internal/characteristics/compression ./internal/characteristics/encryption

# Native fuzz targets run by `make fuzz-smoke`, as package:Target pairs,
# each for FUZZ_TIME. Their seed corpora are under testdata/fuzz.
FUZZ_TARGETS = ./internal/obs:FuzzParseTraceparent ./internal/characteristics/compression:FuzzUnwrap ./internal/characteristics/encryption:FuzzOpen
FUZZ_TIME = 3s

# Trajectory file produced by `make loadgen` (the open-loop load harness's
# full default run): see docs/LOADGEN.md.
LOADGEN_OUT ?= BENCH_8.json

# Trajectory file produced by `make loadgen-pipeline` (the sequential vs
# pipelined vs batched per-connection comparison): see docs/PERFORMANCE.md.
PIPELINE_OUT ?= BENCH_9.json

# Trajectory file produced by `make loadgen-traced` (the pipelined
# comparison re-run with tail-based trace sampling on, recording the
# kept/dropped tallies next to the latency results): docs/OBSERVABILITY.md.
TRACED_OUT ?= BENCH_10.json

# Final live-status snapshot written by the loadgen smoke run (the /loadgen
# debug view, including the self-server's admission counters); CI archives
# it next to the BENCH_*.json trajectory.
LOADGEN_STATUS ?= loadgen-status.json

# Artifacts from the loadgen smoke run's observability surface: the kept
# trace spans (tail sampling at a 10% healthy keep) and any
# anomaly-triggered profile captures; CI uploads both.
TRACE_SNAPSHOT ?= loadgen-traces.json
PROFILE_DIR ?= loadgen-profiles

# Coverage floor (percent) enforced by `make cover` on the observability
# and QoS packages: the flight recorder, debug endpoints and the SLO/burn
# engine are the forensics layer, so they stay thoroughly tested. The
# merged profile lands in COVER_PROFILE for CI to archive.
COVER_PKGS ?= ./internal/obs ./internal/qos
COVER_FLOOR ?= 75
COVER_PROFILE ?= coverprofile.out

.PHONY: all check vet build test race perfbench-test bench bench-smoke fuzz-smoke loadgen loadgen-smoke loadgen-pipeline loadgen-traced slo-smoke chaos cover clean

all: check

# check is the full gate: vet, build everything, race-enabled tests, the
# chaos suite (fault injection + resilience) on its own for a readable
# verdict, the SLO-engine smoke, the coverage floors, a one-iteration
# bench smoke so benchmark code can't rot, a few seconds of each fuzz
# target, the benchmark module's own tests, and the loadgen smoke run so
# the open-loop harness keeps driving a real server end to end.
check: vet build race perfbench-test chaos slo-smoke cover bench-smoke fuzz-smoke loadgen-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench-test vets and race-tests the benchmark harness (its own Go
# module, so ./... above does not reach it): an internal API change that
# breaks the harness fails here instead of in a benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -race ./...

# bench runs every benchmark family with allocation accounting and records
# the parsed results as a JSON trajectory point (see docs/PERFORMANCE.md
# for the format and how to compare points across PRs). It refuses to run
# without BENCH_OUT, so an existing point is only replaced on purpose.
bench:
	@test -n "$(BENCH_OUT)" || { echo "usage: make bench BENCH_OUT=BENCH_<n>.json (a new trajectory point; existing ones are history)"; exit 1; }
	$(GO) test -bench=. -benchmem -benchtime=200ms -run='^$$' $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench-smoke executes each benchmark exactly once: it proves the bench
# harness still compiles and runs without paying measurement time.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' $(BENCH_PKGS)

# fuzz-smoke runs each native fuzz target for FUZZ_TIME with two workers
# (standard toolchain, no corpus download): long enough to catch a decoder
# that panics on a near-seed input. A failing input lands in the package's
# testdata/fuzz directory, where `go test` replays it from then on.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		$(GO) test -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZ_TIME) -parallel=2 $$pkg || exit 1; \
	done

# loadgen runs the full open-loop trajectory workload (>=100k requests
# across three QoS classes) against an in-process server and records the
# coordinated-omission-correct percentiles (see docs/LOADGEN.md). The
# preset was sized to exceed one machine's capacity while a fresh flate
# writer per message dominated the cost; with the flate state pooled that
# is no longer established, and re-baselining the rates is pending. The
# server runs with a dispatch deadline: requests that outwait 250ms in
# the dispatch queue are shed with TRANSIENT (docs/ADMISSION.md), keeping
# the served percentiles flat and reporting any excess as shed counts.
loadgen:
	$(GO) run ./cmd/maqs-loadgen -self -scenario default -seed 1 -shed-deadline 250ms -o $(LOADGEN_OUT)

# loadgen-pipeline runs the per-connection throughput comparison behind
# BENCH_9.json: sequential, pipelined (CallAsync, depth 64) and batched
# (Multicall, batch 32) echo classes, each one identity on one connection
# over a simulated 200us link, under the same saturating schedule. The
# pipelined class's requests/sec per connection must multiply the
# sequential baseline's (see docs/PERFORMANCE.md).
loadgen-pipeline:
	$(GO) run ./cmd/maqs-loadgen -self -scenario pipeline -seed 1 -netsim-latency 200us -o $(PIPELINE_OUT)

# loadgen-traced re-runs the pipelined comparison with tail-based trace
# sampling enabled (anomalous traces always kept, 10% of healthy ones):
# BENCH_10.json records the per-class kept/dropped/evicted tallies next
# to the latency percentiles, proving the sampler holds up under a
# saturating pipelined workload (see docs/OBSERVABILITY.md).
loadgen-traced:
	$(GO) run ./cmd/maqs-loadgen -self -scenario pipeline -seed 1 -netsim-latency 200us -tail-sample 0.1 -o $(TRACED_OUT)

# loadgen-smoke drives the ~1.2k-request smoke preset over loopback TCP:
# a fast end-to-end proof that the harness schedules, negotiates and
# reports. Fails on any request error, and leaves the final live-status
# view in $(LOADGEN_STATUS), the tail-sampled trace spans in
# $(TRACE_SNAPSHOT) and any anomaly-triggered profiles in $(PROFILE_DIR)
# for CI to archive.
loadgen-smoke:
	@out=$$($(GO) run ./cmd/maqs-loadgen -self -scenario smoke -seed 1 -report 10s -status-snapshot $(LOADGEN_STATUS) -tail-sample 0.1 -trace-snapshot $(TRACE_SNAPSHOT) -profile-dir $(PROFILE_DIR)) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q ', errors 0' || { echo "loadgen-smoke: request errors reported"; exit 1; }

# cover enforces the coverage floor on every package in COVER_PKGS and
# writes the merged statement-coverage profile to COVER_PROFILE. It fails
# when any package's statement coverage drops below COVER_FLOOR percent.
cover:
	@out=$$($(GO) test -cover -coverprofile=$(COVER_PROFILE) $(COVER_PKGS)) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	pcts=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	want=$$(echo "$(COVER_PKGS)" | wc -w); \
	got=$$(echo "$$pcts" | grep -c .); \
	if [ "$$got" -lt "$$want" ]; then echo "cover: coverage reported for $$got of $$want packages"; exit 1; fi; \
	for pct in $$pcts; do \
		awk "BEGIN { if ($$pct < $(COVER_FLOOR)) { printf \"cover: %.1f%% below floor $(COVER_FLOOR)%%\n\", $$pct; exit 1 } }" || exit 1; \
	done

# slo-smoke exercises the SLO engine's burn windows, state machine and
# facade wiring race-enabled — a focused gate that fails fast when the
# budget arithmetic or the degrader hookup regresses.
slo-smoke:
	$(GO) test -race -run 'TestSLO|TestWindowCounter|TestHealthAndReady' ./internal/qos ./internal/obs .

# chaos runs the fault-injection stress tests race-enabled: the seeded
# FaultPlan chaos run, the shed-storm overload case (TestChaosShedStorm,
# see docs/ADMISSION.md) and the targeted retry/breaker tests.
chaos:
	$(GO) test -race -run 'TestChaos|TestRetry|TestBreaker|TestNonIdempotent|TestFault' -v ./internal/orb ./internal/netsim ./internal/resilience

clean:
	$(GO) clean ./...
