package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shaclfrag/internal/obs"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// ParallelOptions configures FragmentParallel.
type ParallelOptions struct {
	// Workers is the number of extraction goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). One worker degrades to the serial algorithm on
	// the calling extractor.
	Workers int
	// Cache, when non-nil, serves per-(node, request) neighborhoods from
	// memory and stores misses. Caching switches accumulation from shared
	// per-worker visited sets to isolated per-node units (the cacheable
	// granularity); first-time extraction is therefore somewhat slower, in
	// exchange for repeated requests being nearly free.
	Cache *NeighborhoodCache
	// Ctx, when non-nil, aborts extraction between work units and inside a
	// path search (polled every few thousand product states, so one source
	// under a star path on a hub is interruptible); the error returned is
	// ctx.Err(). Used by the HTTP server for request timeouts.
	Ctx context.Context
	// Epoch is the store epoch the extractor's graph belongs to; it
	// namespaces Cache entries so neighborhoods computed against one
	// snapshot are never served for another (see store.Store). Leave
	// zero when serving a single graph that never updates.
	Epoch uint64
	// Recorder, when non-nil, receives a (triple, justification) record for
	// every Table 2 emission — typically an *Explanation. It is shared
	// across workers, so it must be safe for concurrent use (Explanation
	// is). A nil recorder keeps the hot path free of attribution work and
	// the output byte-identical to the unattributed algorithm. A non-nil
	// recorder bypasses Cache (cached neighborhoods carry no
	// justifications).
	Recorder AttributionRecorder
	// Plans, when non-nil, holds compiled instruction programs aligned
	// with the requests slice (typically plan.CompileAll over them). A
	// request whose program Fits the graph's dictionary is extracted by the
	// compiled plan instead of the AST walker — same triples (the parity
	// suites gate byte identity), dense-memo speed. Nil entries, programs
	// over plan.MemoBudget, and all requests when Recorder is set run on
	// the AST walker: plans carry no attribution.
	Plans *plan.Set
	// Span, when non-nil, is the parent span extraction records under (the
	// serving layer passes the request's "extract" span): the sub-stages
	// "nnf" (request normalization), "scatter" and "merge" or "gather"
	// (union of the per-worker triple sets), which the server also reads
	// as stages; "bind" for plan binding; per-shard "shard[i]"
	// accumulators on the scatter-gather path with "plan-exec"/"ast-exec"
	// breakdown children, and the same exec breakdown directly under Span
	// on the flat and serial paths — plus instructions / memo_resets /
	// units / workers attributes. A nil Span (the CLI, benchmarks) keeps
	// the hot path free of any timing.
	Span *obs.Span
}

// stopOf returns what path searches poll to learn that the request's context
// ended, nil without one. A search it stops panics with paths.ErrStopped, so
// it is installed only where that is recovered: by FragmentParallel, on
// NeighborhoodsCached's miss path, and by WithStop.
func stopOf(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// WithStop runs fn while the path searches of x poll ctx: one that ctx ends
// mid-search unwinds fn and comes back as ctx.Err(), nothing partial
// memoized. For callers that extract through x directly, as /explain does.
func (x *Extractor) WithStop(ctx context.Context, fn func() error) (err error) {
	x.ev.SetStop(stopOf(ctx))
	defer func() {
		x.ev.SetStop(nil) // x outlives the call, and its other callers recover nothing
		if r := recover(); r == paths.ErrStopped {
			err = ctx.Err()
		} else if r != nil {
			panic(r)
		}
	}()
	return fn()
}

// boundPlans binds the program set against g for one worker, returning a
// per-request slice of bound programs (nil where the AST path applies: no
// program, one that does not Fit g's dictionary, or a request without focus
// nodes, which never runs). Each worker binds privately: dense memo rows are
// single-writer state — and so the "bind" child the binding time
// accumulates into, given a span, sums over workers.
func boundPlans(opts ParallelOptions, focus [][]rdfgraph.ID, g rdfgraph.Reader) []*plan.Bound {
	if opts.Plans == nil || opts.Recorder != nil {
		return nil
	}
	var begin time.Time
	if opts.Span != nil {
		begin = time.Now()
	}
	bounds := make([]*plan.Bound, len(focus))
	stop := stopOf(opts.Ctx)
	dictTerms := g.Dict().Len()
	for i, p := range opts.Plans.Programs {
		if i >= len(focus) {
			break
		}
		if p != nil && len(focus[i]) > 0 && p.Fits(dictTerms) {
			bounds[i] = p.Bind(g)
			bounds[i].SetStop(stop)
		}
	}
	if opts.Span != nil {
		opts.Span.AccumChild("bind").Add(time.Since(begin))
	}
	return bounds
}

// releaseBounds recycles the bound programs' rows when a worker is done.
func releaseBounds(bounds []*plan.Bound) {
	for _, b := range bounds {
		if b != nil {
			b.Release()
		}
	}
}

// boundAt returns the bound program for a request index, nil when absent.
func boundAt(bounds []*plan.Bound, req int) *plan.Bound {
	if bounds == nil {
		return nil
	}
	return bounds[req]
}

// workerSpanState is the per-worker accounting a traced extraction asks of
// each extraction goroutine: exec wall time accumulated into breakdown
// children, unit counts, and memo resets summed at worker exit. All
// methods no-op (one branch) without a parent span.
type workerSpanState struct {
	parent *obs.Span   // span exec breakdown children accumulate under
	shards []*obs.Span // per-shard accumulators, nil on flat/serial paths
}

// begin returns the unit start time, zero without a parent span —
// time.Now is not called at all on the untraced hot path.
func (w *workerSpanState) begin() time.Time {
	if w.parent == nil {
		return time.Time{}
	}
	return time.Now()
}

// finish attributes one finished work unit: d into the shard accumulator
// (when sharded) and into the plan-exec/ast-exec breakdown child.
func (w *workerSpanState) finish(begin time.Time, shard int, planned bool) {
	if w.parent == nil {
		return
	}
	d := time.Since(begin)
	target := w.parent
	if w.shards != nil {
		target = w.shards[shard]
		target.Add(d)
	}
	target.AddAttrInt("units", 1)
	exec := "ast-exec"
	if planned {
		exec = "plan-exec"
	}
	target.AccumChild(exec).Add(d)
}

// done sums the worker's memo resets and searches into the parent span.
func (w *workerSpanState) done(bounds []*plan.Bound) {
	if w.parent == nil || bounds == nil {
		return
	}
	var resets, searches int64
	for _, b := range bounds {
		if b != nil {
			resets += int64(b.Resets)
			searches += int64(b.Searches())
		}
	}
	if resets > 0 {
		w.parent.AddAttrInt("memo_resets", resets)
	}
	if searches > 0 {
		w.parent.AddAttrInt("searches", searches)
	}
}

// spanAttrs stamps the request-level attributes a traced extraction
// carries: worker count, request count, focus nodes visited (summed over
// the requests), and the compiled instruction count when plans are in play.
func spanAttrs(opts ParallelOptions, workers, nreq, nnodes int) {
	sp := opts.Span
	if sp == nil {
		return
	}
	sp.SetAttrInt("workers", int64(workers))
	sp.SetAttrInt("requests", int64(nreq))
	sp.SetAttrInt("nodes", int64(nnodes))
	if opts.Plans != nil && opts.Recorder == nil {
		sp.SetAttrInt("instructions", int64(opts.Plans.NumInstrs()))
	}
}

// PanicError is a panic recovered from extraction, returned by
// FragmentParallel as an error. Workers run on goroutines of their own,
// where an unrecovered panic — a bug in an extraction rule, a corrupt
// index — would end the whole process, not just the request that hit it.
type PanicError struct {
	Value any    // what panic was called with
	Stack []byte // stack of the goroutine that panicked
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic during extraction: %v\n%s", e.Value, e.Stack)
}

// FragmentParallel computes Frag(G, S) like Fragment, fanning the
// focus-node loop out over a worker pool. Each request visits its focus
// candidates (shape.Evaluator.FocusCandidates) where its syntax yields
// them and all of N(G) otherwise: a node outside the candidates does not
// conform, so its neighborhood is empty and skipping it changes nothing.
// Each worker owns a private evaluator, visited set, and triple
// accumulator; the per-worker sets are unioned at the end, so the result
// is exactly Fragment's (the union of neighborhoods is order-independent),
// in identical canonical order.
//
// The graph must not be mutated during the call. All evaluation and
// extraction paths are read-only on the graph — freeze it (Graph.Freeze) to
// have that enforced.
//
// A panic during extraction, on the calling goroutine (set-up and the
// one-worker path) or on a worker, comes back as a *PanicError — except
// paths.ErrStopped, a search noticing that opts.Ctx ended, which comes back
// as opts.Ctx.Err() like a cancellation between work units.
func (x *Extractor) FragmentParallel(requests []shape.Shape, opts ParallelOptions) ([]rdf.Triple, error) {
	ids, err := x.FragmentParallelIDs(requests, opts)
	if err != nil {
		return nil, err
	}
	return x.ev.G.Dict().DecodeTriples(ids), nil
}

// FragmentParallelIDs is FragmentParallel short of decoding: the fragment
// as dictionary-encoded triples in canonical order
// (rdfgraph.SortIDTriples), which is what a serving route streams from.
func (x *Extractor) FragmentParallelIDs(requests []shape.Shape, opts ParallelOptions) (triples []rdfgraph.IDTriple, err error) {
	defer func() {
		if r := recover(); r == paths.ErrStopped {
			triples, err = nil, opts.Ctx.Err()
		} else if r != nil {
			triples, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	g := x.ev.G
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Normalize once on the calling extractor so every worker agrees on
	// shape identity and none re-derives NNF; the focus nodes come from
	// the normalized request, where negation no longer hides a ≥n.
	nnfSpan := opts.Span.StartChild("nnf")
	nnfs := make([]shape.Shape, len(requests))
	for i, phi := range requests {
		nnfs[i] = x.nnf(phi)
	}
	focus, all, total := x.focusNodes(nnfs)
	nnfSpan.End()
	spanAttrs(opts, workers, len(requests), total)
	if workers == 1 || total == 0 {
		return x.fragmentSerial(requests, nnfs, focus, opts)
	}

	// A sharded reader (store.ShardedGraph) gets scatter-gather scheduling:
	// the work list is grouped by owner shard, so consecutive units hit the
	// same shard's indexes (forward steps of nodes owned by one shard
	// resolve entirely in that shard; only reverse steps fan out). Only the
	// work order differs from the flat path, and the union is
	// order-independent, so the result is byte-identical for any shard
	// count.
	var parts [][]rdfgraph.ID
	sg, sharded := g.(ShardedReader)
	if sharded {
		parts = sg.ShardNodeIDs()
		sharded = len(parts) > 1
	}
	mergeStage := "merge"
	var units []unit
	cached := opts.Cache != nil && opts.Recorder == nil // as extractRange decides
	if sharded {
		mergeStage = "gather"
		scatterSpan := opts.Span.StartChild("scatter")
		split := make([][][]rdfgraph.ID, len(focus))
		for req, nodes := range focus {
			if len(all) > 0 && len(nodes) == len(all) {
				split[req] = parts // candidates ⊆ N(G), so this is N(G)
				continue
			}
			split[req] = make([][]rdfgraph.ID, len(parts))
			for _, v := range nodes {
				si := sg.ShardOf(v)
				split[req][si] = append(split[req][si], v)
			}
		}
		for si := range parts {
			for req := range focus {
				units = appendUnits(units, req, si, split[req][si], len(focus[req]), workers, cached)
			}
		}
		scatterSpan.End()
	} else {
		for req, nodes := range focus {
			units = appendUnits(units, req, 0, nodes, len(nodes), workers, cached)
		}
	}
	if workers > len(units) {
		workers = len(units) // an idle worker would still bind every plan
	}

	// Per-shard accumulator spans: workers Add each unit's wall time to
	// its shard's span, so one shard's span sums the CPU time spent on
	// that shard's nodes regardless of which workers stole the units.
	var shardSpans []*obs.Span
	if sharded && opts.Span != nil {
		opts.Span.SetAttrInt("shards", int64(len(parts)))
		shardSpans = make([]*obs.Span, len(parts))
		for i := range parts {
			shardSpans[i] = opts.Span.AccumChild(fmt.Sprintf("shard[%d]", i))
			shardSpans[i].SetAttrInt("shard_nodes", int64(len(parts[i])))
		}
	}

	outs := make([]*rdfgraph.IDTripleSet, workers)
	var next atomic.Int64
	var cancelled atomic.Bool
	var panicked atomic.Pointer[PanicError] // the first worker panic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		out := rdfgraph.NewIDTripleSet()
		outs[w] = out
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r == paths.ErrStopped {
					cancelled.Store(true)
				} else if r != nil {
					panicked.CompareAndSwap(nil, &PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			wx := NewExtractor(g, x.ev.Defs)
			wx.ev.SetStop(stopOf(opts.Ctx))
			wx.rec = opts.Recorder
			spans := workerSpanState{parent: opts.Span, shards: shardSpans}
			bounds := boundPlans(opts, focus, g)
			defer releaseBounds(bounds)
			defer spans.done(bounds)
			visited := make(map[VisitKey]struct{})
			for {
				if opts.Ctx != nil && opts.Ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(units) || panicked.Load() != nil {
					return
				}
				u := units[i]
				b := boundAt(bounds, u.req)
				begin := spans.begin()
				wx.extractRange(requests[u.req], nnfs[u.req], b, u.nodes, out, visited, opts.Cache, opts.Epoch)
				spans.finish(begin, u.shard, b != nil)
			}
		}()
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return nil, pe
	}
	if cancelled.Load() {
		return nil, opts.Ctx.Err()
	}
	defer opts.Span.StartChild(mergeStage).End()
	// Union by sort and compact: cheaper than growing one worker's map by
	// the others' contents only to list and sort it afterwards.
	merged := make([]rdfgraph.IDTriple, 0, len(outs)*outs[0].Len()) // shares are about even
	for _, o := range outs {
		o.Each(func(t rdfgraph.IDTriple) { merged = append(merged, t) })
	}
	rdfgraph.SortIDTriples(g.Dict(), merged)
	return slices.Compact(merged), nil
}

// focusNodes returns, per normalized request, the nodes extraction visits
// (shape.Evaluator.FocusNodes), all — N(G), nil unless some request has no
// candidate set — and the total over requests.
func (x *Extractor) focusNodes(nnfs []shape.Shape) (focus [][]rdfgraph.ID, all []rdfgraph.ID, total int) {
	focus = make([][]rdfgraph.ID, len(nnfs))
	for i, phi := range nnfs {
		focus[i] = x.ev.FocusNodes(phi, &all)
		total += len(focus[i])
	}
	return focus, all, total
}

// unit is one stealable piece of work: a run of one request's focus nodes,
// all owned by one shard (shard 0 on an unsharded reader).
type unit struct {
	req, shard int
	nodes      []rdfgraph.ID
}

// appendUnits chunks nodes — the part of a request's n focus nodes one
// shard owns. With a cache a node is extracted on its own whatever the unit:
// units small enough to balance skewed neighborhoods, large enough that the
// atomic counter and evaluator cache misses stay in the noise. Without one a
// unit is a source set (plan.Bound.CollectAllInto: one product search per
// path however many nodes), so it is a worker's whole share — split further
// it repeats searches over nearly the same ground.
func appendUnits(units []unit, req, shard int, nodes []rdfgraph.ID, n, workers int, cached bool) []unit {
	chunk := max(n/(workers*8), 16)
	if !cached {
		chunk = (len(nodes) + workers - 1) / workers
	}
	for lo := 0; lo < len(nodes); lo += chunk {
		hi := lo + chunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		units = append(units, unit{req: req, shard: shard, nodes: nodes[lo:hi]})
	}
	return units
}

// ShardedReader is the optional interface a sharded graph reader exposes
// (store.ShardedGraph does): N(G) pre-partitioned by owner shard.
// FragmentParallel detects it and switches to scatter-gather scheduling.
type ShardedReader interface {
	rdfgraph.Reader
	// ShardNodeIDs returns N(G) partitioned by owner shard; parts are
	// disjoint, each sorted, and their union is NodeIDs().
	ShardNodeIDs() [][]rdfgraph.ID
	// ShardOf returns the index of the part that holds node id.
	ShardOf(id rdfgraph.ID) int
}

// FragmentSchemaParallel is FragmentParallel over SchemaRequests(h). Note
// that SchemaRequests builds fresh shape values: callers wanting cache hits
// across calls should compute the requests once and use FragmentParallel.
func (x *Extractor) FragmentSchemaParallel(h *schema.Schema, opts ParallelOptions) ([]rdf.Triple, error) {
	return x.FragmentParallel(SchemaRequests(h), opts)
}

// fragmentSerial is the one-worker path, run on the calling extractor so
// its evaluator caches keep accumulating across calls.
func (x *Extractor) fragmentSerial(requests []shape.Shape, nnfs []shape.Shape, focus [][]rdfgraph.ID, opts ParallelOptions) ([]rdfgraph.IDTriple, error) {
	if opts.Recorder != nil {
		prev, prevName := x.rec, x.curName
		x.rec = opts.Recorder
		defer func() { x.rec, x.curName = prev, prevName }()
	}
	if stop := stopOf(opts.Ctx); stop != nil {
		// x outlives the call (the server pools it), and its other callers
		// recover nothing.
		x.ev.SetStop(stop)
		defer x.ev.SetStop(nil)
	}
	out := rdfgraph.NewIDTripleSet()
	spans := workerSpanState{parent: opts.Span}
	bounds := boundPlans(opts, focus, x.ev.G)
	defer releaseBounds(bounds)
	defer spans.done(bounds)
	visited := make(map[VisitKey]struct{})
	for i := range requests {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return nil, opts.Ctx.Err()
		}
		if len(focus[i]) == 0 {
			continue // no unit, as on the parallel path
		}
		b := boundAt(bounds, i)
		begin := spans.begin()
		x.extractRange(requests[i], nnfs[i], b, focus[i], out, visited, opts.Cache, opts.Epoch)
		spans.finish(begin, 0, b != nil)
	}
	return out.Sorted(x.ev.G.Dict()), nil
}

// extractRange accumulates the neighborhoods of a node range for one
// request. Without a cache it shares out and visited across the whole range
// (the fast path, identical to Fragment's inner loop). With a cache it
// computes isolated per-node neighborhoods — the unit the cache stores —
// while still sharing this extractor's conformance and path caches. A
// non-nil bound program takes over both modes: it produces the same
// per-node neighborhoods (parity-gated), so cache entries are
// interchangeable between the two extractors.
func (x *Extractor) extractRange(request, nnf shape.Shape, b *plan.Bound, nodes []rdfgraph.ID, out *rdfgraph.IDTripleSet, visited map[VisitKey]struct{}, cache *NeighborhoodCache, epoch uint64) {
	// A cached neighborhood carries no justifications, so an attached
	// recorder bypasses the cache: attribution always re-derives.
	if cache == nil || x.rec != nil {
		if b != nil {
			b.CollectAllInto(nodes, out)
			return
		}
		for _, v := range nodes {
			x.collect(v, nnf, out, visited)
		}
		return
	}
	for _, v := range nodes {
		if ts, ok := cache.Get(epoch, v, request); ok {
			out.AddAll(ts)
			continue
		}
		per := rdfgraph.NewIDTripleSet()
		if b != nil {
			b.ResetVisited()
			b.CollectInto(v, per)
		} else {
			x.collect(v, nnf, per, make(map[VisitKey]struct{}))
		}
		ts := per.IDTriples()
		cache.Put(epoch, v, request, ts)
		out.AddSet(per)
	}
}
