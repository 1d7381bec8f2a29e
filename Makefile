GO ?= go

.PHONY: build test race vet bench bench-json bench-json-smoke bench-live bench-paths bench-serve bench-scale-10m check clean cover docs-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The rdfgraph, core and obs suites include concurrency tests written for
# the race detector; this is the target that gives them teeth.
race:
	$(GO) test -race ./...

# Coverage floors for the packages owning serving-path behavior, held a
# few points under current levels (obs 92%, fragserver 95%, core 94%,
# rdfgraph 85% as of the observability PR) so drift is caught without
# flaking on small refactors. `make cover` prints the per-package summary
# and fails if any floor is broken.
COVER_FLOORS = internal/obs=85 internal/fragserver=88 internal/core=88 internal/rdfgraph=78

cover:
	@$(GO) test -cover ./... | tee cover.txt
	@awk -v floors="$(COVER_FLOORS)" ' \
	  BEGIN { n = split(floors, fs, " "); for (i = 1; i <= n; i++) { split(fs[i], kv, "="); floor[kv[1]] = kv[2] } } \
	  $$1 == "ok" && /coverage:/ { \
	    for (p in floor) if ($$2 ~ p "$$") { \
	      pct = $$0; sub(/.*coverage: /, "", pct); sub(/% of statements.*/, "", pct); \
	      printf "%-24s %6.1f%%  (floor %s%%)\n", p, pct, floor[p]; \
	      if (pct + 0 < floor[p]) bad = 1 } } \
	  END { if (bad) { print "FAIL: coverage below floor"; exit 1 } }' cover.txt
	@rm -f cover.txt

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem -run NONE .

# One benchmark run of the parallel-extraction series only.
bench-parallel:
	$(GO) test -bench FragmentParallel -benchmem -run NONE .

# The trajectory bench-json snapshots: the paper's figures and tables,
# containment, tracing, parallel extraction and live updates.
BENCH_TRAJECTORY = Fig|Tab|Containment|Traced|FragmentParallel|Live

# What bench-json-smoke (which `make check` runs) compiles and parses: the
# trajectory plus the read routes in process, the cold hub fragment and
# plan extraction. The one list of smoke benchmarks.
BENCH_SMOKE = $(BENCH_TRAJECTORY)|Serve|HubFragmentCold|PlanExtraction

# Machine-readable benchmark trajectory: runs BENCH_TRAJECTORY and writes
# repo-root BENCH_<n>.json (name, ns/op, B/op, allocs/op, git SHA) with <n>
# one past the last snapshot — the same location `make check` asserts is
# non-empty.
bench-json:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_TRAJECTORY)' -benchtime 2s -dir .

# BENCH_SMOKE at one iteration each: proves the benchmarks compile and the
# parser still reads their output, writes nothing. Part of `make check`.
bench-json-smoke:
	$(GO) run ./cmd/benchjson -smoke -bench '$(BENCH_SMOKE)'

# Write-heavy serving run on its own: updates/s through incremental
# fragment maintenance at 0/100/1000 open subscriptions, with the post-run
# heap size, and POST /update with an S51 subscriber on Tyrol(1000)
# (giant) and on the serving benchmark's update-mix graph, Tyrol(10 000)
# (giant10k), snapshotted into the trajectory.
bench-live:
	$(GO) run ./cmd/benchjson -bench LiveUpdates -benchtime 2s -dir . \
		-meta series=live-updates -meta subscriptions=0,100,1000

# The read routes in process: GET /node over every definition and a
# one-shape GET /fragment, cache warm, shape-scan's 57-shape /fragment
# sweep and hub-path's cold hub /fragment, through Server.Handler(), and
# the plan engine alone on warm memo rows (PlanExtraction/steady-state),
# snapshotted into the trajectory. The allocation columns of the first two
# are what TestWarmNodeAllocs gates.
bench-serve:
	$(GO) run ./cmd/benchjson -bench 'ServeNodeWarm|ServeFragmentShape|ServeFragmentSweep|ServeHubFragment|PlanExtraction/steady-state' -benchtime 2s -dir . \
		-meta series=serve

# Path tracing in process: the Figure 3 series on all three engines, the
# serving benchmark's cold hub fragment (what TestHubTraceAllocs gates), and
# the atomic/star/sequence-star tracing ablation, snapshotted into the
# trajectory. B/op and allocs/op are the columns the product searches own.
bench-paths:
	$(GO) run ./cmd/benchjson -bench 'Fig3HubDistance3|HubFragmentCold|AblationPathTracing' -benchtime 2s -dir . \
		-meta series=path-tracing

# The 10M-triple scale acceptance run: streamed load (triples/s, heap
# MiB after load) plus one-shape extraction at two workers. Needs more
# memory than a small machine has and tens of minutes; writes one
# trajectory snapshot.
bench-scale-10m:
	SHACLFRAG_SCALE_10M=1 $(GO) run ./cmd/benchjson -bench Scale10M -benchtime 1x -dir . \
		-meta triples=10000000 -meta workers=2

# Documentation gate: intra-repo markdown links (files and #anchors)
# must resolve and every `-flag` the docs mention must be defined by
# some command under cmd/. Part of `make check`.
docs-check:
	$(GO) run ./cmd/doclint

# Full CI gate: gofmt, vet, build (bench/'s nested module included), race
# tests on the serving-path packages, the whole test suite, a 3-second
# serving-benchmark smoke, `shaclfrag lint` over examples/
# (clean schemas silent, examples/lint/ corpus flagged), and the
# documentation linter.
check:
	sh scripts/check.sh

clean:
	$(GO) clean ./...
