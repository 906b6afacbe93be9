GO ?= go

# Committed benchmark baseline for the regression gate (see cmd/benchreg).
# Re-record with `make bench-baseline` after an intentional perf change and
# commit the new file (renamed to the recording date).
BENCH_BASELINE ?= BENCH_2026-10-19.json
# Tolerated relative ns/op regression on hot-path benchmarks. allocs/op is
# always exact. CI overrides this with generous headroom because its
# hardware differs from the baseline machine; locally 10% is realistic.
BENCH_THRESHOLD ?= 0.10

.PHONY: all build test check race stress vet fmt fmtcheck clean probe-smoke trace-smoke netfault-smoke shard-smoke ctrl-smoke sweep-smoke chaos-smoke perfbench-check fuzz-engine lockstep benchcheck bench-baseline

all: build

build:
	$(GO) build ./...

# Fast full-suite run (tier-1 gate).
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the pre-commit gate: gofmt, vet, build, then the whole suite
# under the race detector with -short so the internal/sim stress tests run
# at reduced iteration counts (see stressN in internal/sim/stress_test.go).
# -shuffle=on randomizes test and subtest order to catch order coupling;
# a failure prints the shuffle seed for replay (-shuffle=SEED).
check: fmtcheck vet build
	$(GO) test -race -short -shuffle=on ./...

# perfbench-check vets and tests the end-to-end benchmark (perfbench/),
# a Go module of its own that the root `go test ./...` never compiles.
# It links against the internal packages, and its tests check that the
# traced run's policy wrappers still see the interfaces each policy
# implements.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# fuzz-engine fuzzes the event engine's firing order (heap, typed events
# and FIFO lanes) against a naive reference for 20 s. `go test` only
# replays the seed inputs; a crasher is written under
# internal/sim/testdata/fuzz/, which CI uploads.
fuzz-engine:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOps$$' -fuzztime 20s ./internal/sim

# lockstep runs the order contracts at full length, which check and race
# shorten under -short: the engine's firing order against its references
# at full trial counts, the 1000-trial randomized Algorithm 2 lockstep and
# the 4M-arrival Table 3 lockstep against the O(n) scan.
lockstep:
	$(GO) test -count=1 ./internal/sim ./internal/dispatch

# fmtcheck fails when gofmt would reformat any Go file in the tree
# (`make fmt` fixes it).
fmtcheck:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$files"; exit 1; fi

# race runs the whole suite under the race detector with -short (stress
# tests at reduced iteration counts). The adaptive re-planning loop,
# drift modulation and replication scheduler all share engine state, so
# CI runs this as its own job.
race:
	$(GO) test -race -short ./...

# stress runs the internal/sim and internal/cluster stress tests at full
# iteration counts under the race detector (the cluster side includes the
# long netfault stress run; see TestNetfaultStress).
stress:
	$(GO) test -race -run 'Stress|Conservation|Randomized|Cancellations|Monotone|Quick' ./internal/sim/ ./internal/cluster/

# The smoke runs: each target NAME-smoke runs one short, fully
# instrumented heterosim simulation into NAME-out/ (report.txt,
# events.jsonl, manifest.json) and validates the artifacts with
# probecheck: exactly-once terminals and the manifest contract must
# hold whatever layers the run enables. CI runs every one and uploads
# its NAME-out/. Per run, NAME_SIM are the simulation flags, NAME_LAYERS
# the layer and instrumentation flags, NAME_OUT extra artifacts and
# NAME_CHECK extra probecheck flags.
SMOKES = probe trace netfault shard ctrl

# probe: metrics, cadence samples, lifecycle events and a job trace.
probe_SIM = -rho 0.7 -policy ORR -duration 2e4
probe_LAYERS = -sample-dt 500
probe_OUT = -trace probe-out/trace.csv

# trace: spans under network faults (resubmits, duplicate deliveries,
# dispatcher crashes), the nastiest span-assembly path.
trace_SIM = -rho 0.7 -policy ORR -duration 2e4
trace_LAYERS = -netfault loss:0.05,dup:0.05,lat:2,crash:8000:100,down:buffer \
	-ackto 30 -spans trace-out/spans.json
trace_OUT = -trace trace-out/trace.csv
trace_CHECK = -spans trace-out/spans.json

# netfault: an unreliable dispatch network (loss, duplication, latency,
# dispatcher crashes with checkpoint recovery); terminals must stay
# exactly-once despite resubmission and duplicate delivery.
netfault_SIM = -rho 0.7 -policy ORR -duration 2e4
netfault_LAYERS = -netfault loss:0.05,dup:0.05,lat:2,crash:8000:100,down:buffer \
	-ackto 30 -dstate ckpt:2500

# shard: the base speeds tiled to 200 computers under K=4 hash-routed
# dispatcher replicas with the scalable JSQ(2) policy.
shard_SIM = -scale 200 -rho 0.7 -policy 'jsq(2)' -dispatchers 4:hash -duration 2e3

# ctrl: JIQ idle-token reports over lossy, slow control links (leases
# and a query timeout active) under K=4 hash-routed dispatcher replicas.
ctrl_SIM = -rho 0.7 -policy jiq -dispatchers 4:hash \
	-ctrl 'loss:0.2,lat:5,lease:200,qto:50' -duration 2e3

# A static pattern rule: make skips implicit rules for .PHONY targets.
$(SMOKES:%=%-smoke): %-smoke:
	mkdir -p $*-out
	$(GO) run ./cmd/heterosim -speeds 1,1,2,10 $($*_SIM) -reps 1 -probe $($*_LAYERS) \
		-events $*-out/events.jsonl -manifest $*-out/manifest.json $($*_OUT) \
		> $*-out/report.txt
	$(GO) run ./cmd/probecheck -manifest $*-out/manifest.json \
		-events $*-out/events.jsonl -require-terminal $($*_CHECK)

# sweep-smoke runs the sweep binary end to end with the layer flags it
# shares with heterosim: one rho, ORR and jiq under compute faults,
# bounded queues with dispatcher timeouts, a lossy dispatch network and
# a slow control plane. Each cell writes its lifecycle stream to
# sweep-out/ and probecheck validates every stream against the sweep
# manifest (exactly-once terminals). CI uploads sweep-out/.
sweep-smoke:
	rm -rf sweep-out
	mkdir -p sweep-out
	$(GO) run ./cmd/sweep -speeds 1,1,2,10 -policies ORR,jiq -from 0.7 -to 0.7 -step 0.1 \
		-duration 2e4 -reps 1 -mtbf 8000 -mttr 200 -qcap 20 -timeout 300 -retry 2 \
		-netfault loss:0.05,lat:2 -ackto 30 -ctrl lat:3,qto:40 -probe \
		-events sweep-out -manifest sweep-out/manifest.json > sweep-out/report.txt
	for f in sweep-out/*.jsonl; do \
		$(GO) run ./cmd/probecheck -manifest sweep-out/manifest.json \
			-events $$f -require-terminal || exit 1; \
	done

# chaos-smoke samples a bounded budget of composed fault scenarios
# (faults x overload x drift x netfault) and checks every run against the
# invariant registry (see internal/chaos and `go run ./cmd/chaos list`).
# Any violating scenario is shrunk to a minimal reproducer spec written
# under chaos-out/; CI uploads the directory so a red run ships its own
# replayable repro (`go run ./cmd/chaos replay -spec chaos-out/repro-K.chaos`).
chaos-smoke:
	mkdir -p chaos-out
	$(GO) run ./cmd/chaos search \
		-chaos seeds:120,intensity:1,dur:20000,seed:7 \
		-out chaos-out

# benchcheck is the benchmark-regression gate: re-measure the hot-path
# suite and compare against the committed baseline. Fails on >threshold
# ns/op or any allocs/op regression on hot-path benchmarks.
benchcheck:
	$(GO) run ./cmd/benchreg check -baseline $(BENCH_BASELINE) \
		-threshold $(BENCH_THRESHOLD) -save bench-current.json

# bench-baseline re-records the committed baseline on this machine.
bench-baseline:
	$(GO) run ./cmd/benchreg baseline -out $(BENCH_BASELINE)

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

clean:
	$(GO) clean ./...
