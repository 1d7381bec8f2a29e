#!/bin/sh
# CI gate: formatting, vet, race tests on the serving-path packages, the
# nested benchmark module's build and a short smoke run of it, and the shape
# linter over the example schemas — clean ones must be silent, the
# examples/lint/ corpus must be flagged. Run from anywhere; the script
# cd's to the repository root. `make check` is the local entry point, and
# the script needs make: the benchjson smoke runs the Makefile's
# bench-json-smoke, where the list of smoke benchmarks is defined.
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

echo "== bench-only adapters have no other callers"
# plan.PlanSchema, plan.Config, store.SampleStats and store.CardStats (and the
# ProgramSet method PlanSchema's result is read through), the carry-nothing
# NeighborhoodCache.Carry, the replay's sweep NeighborhoodCache.EvictBelow
# (tested beside it), the no-op NeighborhoodCache.SetAliases and the map
# contain.Classes.Aliases builds for it (tested beside it, in
# internal/contain/benchadapter.go), the always-nil ApplyResult.Unaffected,
# and live.Config.Cache and core.ParallelOptions.Cache/.Epoch, which live and
# core ignore, exist only so the frozen bench/ module compiles. The
# benchmark PR (ROADMAP item 1) deletes them by editing bench/ alone, which
# works only while nothing else references them.
if callers=$(grep -rnE '\b(plan\.(PlanSchema|Config)|store\.(SampleStats|CardStats))\b|\.ProgramSet\(|\.Carry\(|\.EvictBelow\(|\.SetAliases\(|\.Aliases\(|\.Unaffected\b' --include='*.go' . |
    grep -v -e '^\./bench/' -e '^\./\.bench_build/' -e '^\./internal/plan/benchadapter\.go:' -e '^\./internal/store/stats\.go:' \
        -e '^\./internal/core/benchadapter\.go:' -e '^\./internal/core/benchadapter_test\.go:' \
        -e '^\./internal/contain/benchadapter\.go:' -e '^\./internal/contain/benchadapter_test\.go:'); then
    echo "bench-only adapters referenced outside bench/:" >&2
    echo "$callers" >&2
    exit 1
fi
if callers=$(grep -nE 'cfg\.Cache' internal/live/*.go | grep -v '_test\.go:'); then
    echo "live reads the bench-only live.Config.Cache:" >&2
    echo "$callers" >&2
    exit 1
fi
# The AST walker's cached neighborhood lookup serves only the frozen bench/
# replay's /node; the server's misses run on compiled programs
# (core.NeighborhoodsCached). Tests may call it as an oracle.
if callers=$(grep -rnE '\.NeighborhoodIDsCached\(' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./bench/' -e '^\./\.bench_build/'); then
    echo "Extractor.NeighborhoodIDsCached called outside bench/ and tests:" >&2
    echo "$callers" >&2
    exit 1
fi
# Any selector named Cache or Epoch counts, whatever the variable is called:
# nothing else in core has a field or method of either name.
if callers=$(grep -nE '\.(Cache|Epoch)\b' internal/core/*.go | grep -v '_test\.go:'); then
    echo "core reads the bench-only ParallelOptions.Cache or .Epoch:" >&2
    echo "$callers" >&2
    exit 1
fi

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
# another goroutine, or a row recycled while still read, shows up here. shape
# and contain share state across goroutines: every shape node memoizes its
# id and normal forms, filled by whichever goroutine asks first.
$GO test -race ./internal/core ./internal/rdfgraph ./internal/fragserver ./internal/live ./internal/shapelint \
    ./internal/paths ./internal/plan ./internal/shape ./internal/contain

echo "== update/subscription storm (-race, -short)"
# The stale-entry pin (no cache entry served at an epoch an update changed
# it for, under racing POSTs the server's write lock serializes), /fragment
# reads racing updates (a program's focus list served only at its own
# snapshot), the
# concurrent apply/notify/fanout storms, an epoch published outside
# /update (over HTTP, and as a notify gap in live), every delta of a
# seeded update history, every /node body of a seeded
# history served from a cache kept warm across updates, the footprint
# walk's coverage of every read extraction makes, a panicking maintenance
# step, live's support counts, its fallbacks to a rebuild (a panicking
# walk over HTTP too) and its star shapes kept without counts, and copy-on-write epochs read while their successor is written,
# re-run on their own so a flake here names the tier that guards the write
# path.
$GO test -race -short -count=1 \
    -run 'TestUpdateCarryStormParity|TestFragmentFocusRacesUpdates|TestEpochPublishedOutsideUpdate|TestNotifyAcrossGap|TestUpdateRejectionPathsCounted|TestSubscribe|TestStormParity|TestSlowSubscriberEviction|TestDeltaHistoryExact|TestPanickingNotifyEvictsShape|TestSupportCountsKeepSharedTriples|TestFallbackPastWalkCap|TestFallbackOnPanickingWalk|TestStarShapeKeepsNoCounts|TestLiveMaintenancePanicEvicts|TestLiveWalkPanicRebuilds|TestCOWEpochsIsolatedProperty|TestCacheHistoryExact|TestFootprintCoversReads' \
    ./internal/fragserver ./internal/live ./internal/rdfgraph ./internal/core

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

echo "== store byte-parity across updates and scale smoke"
# Frag(G, H) through the store at every worker count, before and after
# updates, must stay byte-identical to serial extraction
# from one plain graph, and a streamed 1M-triple load must come up serving.
$GO test -count=1 -run 'TestFragmentParityAcrossUpdates|TestLoaderScale' ./internal/store

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
# The list is the Makefile's BENCH_SMOKE, its one definition.
${MAKE:-make} --no-print-directory bench-json-smoke GO="$GO"

echo "== serving benchmark smoke (shape-scan, update-mix and hub-path, 3 s each)"
# One short run each against a real fragserver: reads, updates with an SSE
# subscriber beside reads, and the cold uncached multi-worker /fragment of
# the Fig 3 hub shape. Every reply is checked against the AST reference, so
# correct:false means served bytes changed.
for workload in shape-scan update-mix hub-path; do
    result=$(bash bench/run.sh -workload "$workload" -seconds 3 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct":true'*) ;;
        *) echo "serving benchmark smoke ($workload) failed" >&2; exit 1 ;;
    esac
done

echo "== nil-tracer alloc parity"
# Span tracing must cost nothing when disabled: untraced callers thread a
# nil *obs.Span through the hot path, and TestSpanNilSafety asserts that
# every Span method on a nil receiver allocates nothing
# (testing.AllocsPerRun == 0) — deterministic, unlike comparing two
# benchmarks' allocs/op under work stealing.
$GO test -count=1 -run '^TestSpanNilSafety$' ./internal/obs

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

echo "== /tpf patterns against Proposition 6.2, fuzzed (5s smoke)"
$GO test -run '^$' -fuzz FuzzTPFPattern -fuzztime 5s ./internal/fragserver

echo "== <iri> fast path and queryValue against Turtle and url.ParseQuery, fuzzed (5s smoke)"
$GO test -run '^$' -fuzz FuzzParseTermParam -fuzztime 5s ./internal/fragserver

echo "== /update bodies against cold extraction, fuzzed (5s smoke)"
# Each exec builds a server, so unbounded minimization of one interesting
# input can spend the whole smoke.
$GO test -run '^$' -fuzz FuzzUpdateBody -fuzztime 5s -fuzzminimizetime 50x ./internal/fragserver

echo "check: OK"
