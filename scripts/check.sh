#!/bin/sh
# CI gate: formatting, vet, race tests on the serving-path packages, the
# nested benchmark module's build and a short smoke run of it, and the shape
# linter over the example schemas — clean ones must be silent, the
# examples/lint/ corpus must be flagged. Run from anywhere; the script
# cd's to the repository root. `make check` is the local entry point.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

echo "== gofmt"
unformatted=$(gofmt -l . 2>/dev/null || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
$GO vet ./...

echo "== go build"
$GO build ./...

echo "== serving benchmark compiles (bench/ is a nested module)"
# Root `go build ./... && go test ./...` never sees bench/, and the
# benchmark is frozen: an internal-API change that breaks it must fail
# here, not in the driver. Same cache and toolchain as bench/run.sh.
(
    export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
    mkdir -p "$GOCACHE"
    $GO -C bench vet ./...
    $GO -C bench build -o /dev/null ./...
    # The replay's handler-versus-replay byte equality, before the driver
    # checks it.
    $GO -C bench test ./...
)

echo "== go test -race (serving path)"
# paths and plan are single-goroutine state that reuses its buffers (an
# Evaluator's search scratch, a Bound's pooled rows): a worker handing one to
# another goroutine, or a row recycled while still read, shows up here.
$GO test -race ./internal/core ./internal/rdfgraph ./internal/fragserver ./internal/live ./internal/shapelint \
    ./internal/paths ./internal/plan

echo "== update/subscription storm (-race, -short)"
# The carry-race pin (stale cache entries resurrected by racing updates)
# and the concurrent apply/notify/fanout storms, re-run on their own so a
# flake here names the tier that guards the write path.
$GO test -race -short -count=1 \
    -run 'TestUpdateCarryStormParity|TestUpdateRejectionPathsCounted|TestSubscribe|TestStormParity|TestSlowSubscriberEviction' \
    ./internal/fragserver ./internal/live

echo "== go test -race (store tier, -short)"
# -short downsizes the loader scale test; the full 1M load runs race-free
# in the everything-else pass below.
$GO test -race -short ./internal/store

echo "== go test (everything else)"
# Also the pass in which TestWarmNodeAllocs and TestUpdateAllocs (the read
# routes' and the write path's allocation gates, internal/fragserver) and
# TestHubTraceAllocs (path tracing's, internal/plan) measure: they skip
# themselves under -race.
$GO test ./...

echo "== sharded byte-parity and scale smoke"
# Frag(G, H) through every shard count and scheduling path, before and
# after updates, must stay byte-identical to serial extraction from one
# plain graph, and a streamed
# 1M-triple load must come up serving.
$GO test -count=1 -run 'TestShardedFragmentParity|TestShardedServerParity|TestLoaderScale' \
    ./internal/store ./internal/fragserver

echo "== shaclfrag lint"
bin=$(mktemp -d)/shaclfrag
trap 'rm -rf "$(dirname "$bin")"' EXIT
$GO build -o "$bin" ./cmd/shaclfrag

# Clean example schemas must produce zero findings.
for f in examples/shapes/*.ttl; do
    out=$("$bin" lint "$f")
    if echo "$out" | grep -q 'SL0'; then
        echo "clean schema $f has findings:" >&2
        echo "$out" >&2
        exit 1
    fi
done

# Every file in the broken corpus must be flagged with an SL-code.
for f in examples/lint/*.ttl; do
    out=$("$bin" lint "$f" || true)
    if ! echo "$out" | grep -q 'SL0'; then
        echo "broken schema $f was not flagged:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "== containment soundness property gate"
# A Contained verdict must never be refuted by randomized model search —
# over the example schemas, random shape pairs, and the benchmark schema.
$GO test -count=1 -run TestContainmentSoundness ./internal/contain

echo "== shaclfrag schema-diff goldens"
# The diff of the committed example versions covers every change kind;
# its breaking changes must keep forcing exit 1, and both renderings must
# match the goldens byte-for-byte (witness search is seeded, so the
# output is reproducible).
if out=$("$bin" schema-diff examples/diff/old.ttl examples/diff/new.ttl); then
    echo "schema-diff exited 0 despite breaking changes" >&2
    exit 1
fi
echo "$out" | diff -u examples/diff/report.golden -
if out=$("$bin" schema-diff -json examples/diff/old.ttl examples/diff/new.ttl); then
    echo "schema-diff -json exited 0 despite breaking changes" >&2
    exit 1
fi
echo "$out" | diff -u examples/diff/report.json.golden -

echo "== shaclfrag explain goldens"
# The tourism walkthrough quoted in the README must keep matching the
# committed goldens byte-for-byte (rendering and blank-node labels alike).
explain() {
    "$bin" explain -data examples/data/tourism.ttl \
        -shapes examples/shapes/tourism.ttl "$@"
}
explain -node http://tourism.example/alpenhof -shape HotelShape \
    | diff -u examples/explain/alpenhof-hotel.golden -
explain -node http://tourism.example/grandhotel -shape HotelShape \
    | diff -u examples/explain/grandhotel-hotel.golden -
explain -node http://tourism.example/seehof -json \
    | diff -u examples/explain/seehof.json.golden -

echo "== docs lint"
# Intra-repo markdown links must resolve and documented -flags must be
# defined by some command (same engine as `make docs-check`).
$GO run ./cmd/doclint

echo "== non-test Go lines outside bench/"
# ROADMAP's north star: this number goes down or stays flat from PR to PR
# unless the added lines buy a measured win or close a correctness hole.
# CHANGES.md records it per PR; compare with the previous entry.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

echo "== benchjson smoke"
$GO run ./cmd/benchjson -smoke -bench 'Fig|Tab|Containment|Traced|FragmentParallel|Live'

echo "== serving benchmark smoke (shape-scan and update-mix, 3 s each)"
# One short run each against a real fragserver: reads, then updates with an
# SSE subscriber beside reads. Every reply is checked against the AST
# reference, so correct:false means served bytes changed.
for workload in shape-scan update-mix; do
    result=$(bash bench/run.sh -workload "$workload" -seconds 3 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct":true'*) ;;
        *) echo "serving benchmark smoke ($workload) failed" >&2; exit 1 ;;
    esac
done

echo "== nil-tracer alloc parity"
# Span tracing must cost nothing when disabled: the untraced variant of
# BenchmarkTracedExtraction runs the exact BenchmarkFragmentParallel
# workers=4 workload through the span-threaded code, so its allocs/op
# must match the baseline. The 3% tolerance absorbs run-to-run noise in
# the extractor's own map growth under work stealing (observed spread is
# under 2% on an identical binary); the tracing plumbing itself would add
# several allocations per extracted node if the nil-checks regressed —
# far beyond it.
status=0
parity=$($GO test -run '^$' -bench 'BenchmarkFragmentParallel/workers=4$|BenchmarkTracedExtraction/trace=off' \
    -benchtime 2x -benchmem . | awk '
    $1 ~ /^BenchmarkFragmentParallel\/workers=4(-[0-9]+)?$/ { base = $(NF-1) }
    $1 ~ /^BenchmarkTracedExtraction\/trace=off(-[0-9]+)?$/ { off = $(NF-1) }
    END {
        if (base == "" || off == "") { print "missing benchmark output"; exit 1 }
        delta = off - base; if (delta < 0) delta = -delta
        printf "baseline=%d nil-tracer=%d delta=%d\n", base, off, delta
        if (delta > base * 0.03) exit 1
    }') || status=$?
echo "$parity"
if [ "$status" -ne 0 ]; then
    echo "nil-tracer hot path allocates differently from the untraced baseline" >&2
    exit 1
fi

echo "== benchmark trajectory present"
# The perf trajectory lives in repo-root BENCH_<n>.json snapshots
# (written by `make bench-json`); an empty trajectory means regressions
# have no baseline to diff against.
if ! ls BENCH_*.json >/dev/null 2>&1; then
    echo "no repo-root BENCH_*.json snapshot; run 'make bench-json'" >&2
    exit 1
fi

echo "== turtle round-trip fuzz (5s smoke)"
$GO test -run '^$' -fuzz FuzzParseSerialize -fuzztime 5s ./internal/turtle

echo "== path tracing against its oracle, fuzzed (5s smoke)"
$GO test -run '^$' -fuzz FuzzTraceOracle -fuzztime 5s ./internal/paths

echo "== traceparent parsing, fuzzed (5s smoke)"
$GO test -run '^$' -fuzz FuzzParseTraceparent -fuzztime 5s ./internal/obs

echo "check: OK"
