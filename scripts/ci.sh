#!/usr/bin/env bash
# Runs the steps of one CI job after set-up (checkout and the Go
# toolchain), in order, stopping at the first failure. The same script
# runs in .github/workflows/ci.yml and on a developer machine:
#
#   scripts/ci.sh test    # build, vet, tests, race, fuzz and bench smokes, figures
#   scripts/ci.sh chaos   # the crash-schedule and governance suite under -race
#   scripts/ci.sh loc     # tracked line counts: non-test Go, test Go, assembly
#
# The staticcheck job is not here: it installs staticcheck over the
# network, so it stays a job of its own in ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

run_test() {
	step "Build"
	go build ./...

	step "Vet"
	# The default analyzers: copylocks, atomic and lostcancel among them,
	# and stdversion, which flags standard-library symbols newer than
	# go.mod's go directive. The repo's own rules run in the Test step.
	go vet ./...
	# The portable kernel tier (internal/knn/phase1_generic.go) builds on
	# every arch, but internal/vec/cpu_generic.go builds only off amd64,
	# and internal/store/mmap_portable.go, the OpenFBMX that decodes into
	# the heap, only off the little-endian mmap platforms; vet each where
	# it builds: linux/arm64, and big-endian linux/s390x. (windows/arm64 cannot stand in for s390x: the root test
	# package calls syscall.Getrusage, which windows lacks.)
	# Cross-vetting needs no network.
	GOOS=linux GOARCH=arm64 go vet ./...
	GOOS=linux GOARCH=s390x go vet ./...

	step "Test"
	# Includes the root TestRepoRules (the five invariant rules and their
	# //fbvet:ok waivers, DESIGN.md "Static analysis plane") and the
	# fbserve binary tests in cmd/fbserve.
	go test ./...

	step "Benchmark harness (own module) compiles and runs against this tree"
	# bench/ is its own Go module, so the root build and test steps never
	# compile it against internal/: an internal API change that breaks
	# the harness must fail here, not in a measurement run.
	go vet -C bench ./...
	go test -C bench -run TestQuickSmoke ./...

	step "Test (race, core packages)"
	go test -race ./internal/simplextree/ ./internal/core/ ./internal/knn/ ./internal/engine/ \
		./internal/experiments/ ./internal/httpapi/ ./internal/service/ \
		./internal/store/ ./internal/persist/ ./internal/dataset/ ./internal/imagegen/ \
		./internal/histogram/ ./internal/vec/ ./internal/obsv/ ./cmd/fbserve/

	step "Kernel parity with AVX2 dispatch disabled"
	# The AVX2 kernels (the two phase kernels and the node box bound) are
	# pinned bitwise against the portable Go kernels; rerun the parity and
	# dispatch suites with the AVX2 path forced off, so the Go tier is
	# what the search runs (the fallback on every CPU without AVX2) and
	# checkptr checks its unsafe.Slice wrappers, and hold the paper
	# figures to the same golden file.
	GODEBUG=cpu.avx2=off go test -race ./internal/vec/ ./internal/knn/
	GODEBUG=cpu.avx2=off go test -run '^TestPaperFiguresGolden$' .

	step "Fuzz smoke (binary parsers + the JSON request surface)"
	# 30s per fuzzer over the committed seed corpora: the tree log (header,
	# census of stamped vertices, journal of stamped records) and the FBMX
	# collection header. The contract: parse or ErrCorrupt, never a panic.
	# FuzzHTTPRequest holds the production handler to the same shape: any
	# body on /query, /feedback, /close gets valid JSON with a 2xx/4xx
	# status, never a panic or a 5xx. FuzzWireCodec holds the hot routes'
	# codec to encoding/json: reply bytes equal json.Encoder's, and every
	# body decodes to the struct, or the refusal, encoding/json alone
	# gives. A worker minimizes every input that
	# finds new coverage before the coordinator counts another exec; at
	# the default 60s budget one FBMX input (4 KB at least: the header
	# page) stalls the whole run, so minimization gets 2s.
	go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 30s -fuzzminimizetime 2s ./internal/persist/
	go test -run '^$' -fuzz '^FuzzFBMX$' -fuzztime 30s -fuzzminimizetime 2s ./internal/store/
	go test -run '^$' -fuzz '^FuzzHTTPRequest$' -fuzztime 30s -fuzzminimizetime 2s ./internal/httpapi/
	go test -run '^$' -fuzz '^FuzzWireCodec$' -fuzztime 30s -fuzzminimizetime 2s ./internal/httpapi/

	step "Benchmark smoke pass"
	# One iteration of the retrieval-core, prediction-plane, census-replay,
	# feedback, box-bound kernel and scale-1 collection-build benchmarks:
	# catches benchmarks that no longer compile or crash, without paying
	# for a full measurement run. The build has its own line: -bench
	# splits its pattern at '/', so a sub-benchmark filter would apply to
	# them all.
	go test -run '^$' -bench 'KNN|Feedback|Predict|WALAppend|CensusReplay' -benchtime 1x .
	go test -run '^$' -bench 'BenchmarkDatasetBuild/scale=1$' -benchtime 1x .
	go test -run '^$' -bench 'Feedback' -benchtime 1x ./internal/engine/
	go test -run '^$' -bench 'BoxBound2' -benchtime 1x ./internal/knn/

	step "Benchmark regression smoke (prediction plane, retrieval core, collection build, restart)"
	# Short measured runs of the serial and parallel predict series, of
	# the lone scan over the oracle searches at bigscan scale (wall and
	# CPU per search), of the bigscan collection's render (wall and CPU
	# per build), and of a durable restart's log replay (wall, bytes and
	# allocations per Load), so a lock-split, allocation, pruning,
	# sampling or storage regression shows up as a step in the uploaded
	# numbers.
	go test -run '^$' -bench 'BenchmarkPredict$|BenchmarkPredictParallel$' -benchtime 2000x . | tee bench_predict.txt
	go test -run '^$' -bench 'BenchmarkKNNScanOracle$' -benchtime 2000x . | tee bench_knn.txt
	go test -run '^$' -bench 'BenchmarkDatasetBuild/scale=10$' -benchtime 3x . | tee bench_build.txt
	go test -run '^$' -bench 'BenchmarkCensusReplay$' -benchmem -benchtime 50x . | tee bench_replay.txt

	step "Lifecycle figure (bounded memory)"
	# The bypass-aging soak, uploaded by ci.yml. Its modules age vertices
	# out in the compaction every CompactEvery accepted inserts triggers.
	# Its properties (aging holds fewer points than the aging-off control
	# at a perfect recent-window hit rate) are asserted at this operating
	# point by TestRunLifecycleBounded in the Test step, and its numbers
	# are held to benchmarks/bench_lifecycle.json by
	# TestLifecycleFigureGolden.
	go run ./cmd/fbbench -figure lifecycle -json bench_lifecycle.json | tee bench_lifecycle.txt

	step "staticcheck: skipped, it needs the network to install (ci.yml's staticcheck job runs it)"
}

run_chaos() {
	step "Crash-schedule + governance suite (race)"
	# The fault-injection tests: every enumerated crash point along
	# insert → WAL append → compact (aged compactions ride the log commit
	# that CompactEvery triggers: TestCrashScheduleCompactEvery), quota
	# and degraded-mode behaviour, aging parity/idempotence, the lifecycle
	# figure's golden (TestLifecycleFigureGolden), the hardened serving
	# edge, and the metric tests, whose counters concurrent sessions bump
	# and /stats, /metrics and the registry's text read back
	# (TestStatsReadsMetrics, TestServiceInstrumentation, the obsv
	# exposition tests) — all under the race detector.
	go test -race -run 'Crash|Fault|Degraded|Quota|Context|Hardened|StatusFor|Lifecycle|Aging|Timestamped|Compact|Metrics|Instrumentation|GaugeFunc|SnapshotJSON' \
		./internal/faultfs/ ./internal/persist/ ./internal/core/ ./internal/obsv/ \
		./internal/service/ ./internal/experiments/ ./internal/httpapi/ ./cmd/fbserve/
}

# run_loc prints the tracked line counts the ROADMAP reports: every file
# git tracks, outside bench/ (its own module) and testdata/. A tracked
# file deleted from the working tree counts nothing, so a deletion shows
# in the counts before it is committed.
run_loc() {
	count() {
		git ls-files -- "$@" | grep -v -e '^bench/' -e '\(^\|/\)testdata/' |
			while IFS= read -r f; do [ ! -f "$f" ] || cat -- "$f"; done | wc -l
	}
	printf 'non-test Go  %6d\n' "$(count '*.go' ':!:*_test.go')"
	printf 'test Go      %6d\n' "$(count '*_test.go')"
	printf 'assembly     %6d\n' "$(count '*.s')"
}

case "${1:-}" in
test) run_test ;;
chaos) run_chaos ;;
loc) run_loc ;;
*)
	echo "usage: $0 test|chaos|loc" >&2
	exit 2
	;;
esac
