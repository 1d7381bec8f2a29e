package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"shaclfrag/internal/obs"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// ParallelOptions configures FragmentParallel.
type ParallelOptions struct {
	// Workers is the number of extraction goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). One worker runs the same unit loop on the
	// calling goroutine and the calling extractor.
	Workers int
	// Cache is ignored: a fragment is one union over its focus nodes, and
	// per-node reuse is NeighborhoodsCached's. The field stays only so the
	// frozen bench/ module compiles (ROADMAP item 1 deletes it; check.sh
	// rejects any reader in this package).
	Cache *NeighborhoodCache
	// Ctx, when non-nil, aborts extraction between work units and inside a
	// path search (polled every few thousand product edges, so one source
	// under a star path on a hub is interruptible); the error returned is
	// ctx.Err(). Used by the HTTP server for request timeouts.
	Ctx context.Context
	// Epoch is ignored, like Cache, and kept for the same reason.
	Epoch uint64
	// Plans, when non-nil, holds compiled instruction programs aligned
	// with the requests slice (typically plan.CompileAll over them). A
	// request with a program is extracted by the compiled plan instead of
	// the AST walker — same triples (the parity suites gate byte
	// identity), paged-memo speed. Nil entries run on the AST walker.
	Plans *plan.Set
	// Span, when non-nil, is the parent span extraction records under (the
	// serving layer passes the request's "extract" span): the sub-stages
	// "nnf" (request normalization) and "merge" (union of the per-worker
	// triple sets), which the server also reads as stages; "bind" for plan
	// binding; the "plan-exec"/"ast-exec" breakdown accumulators — plus
	// instructions / searches / units / workers attributes. A nil Span
	// (the CLI, benchmarks) keeps the hot path free of any timing.
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
// program, or a request without focus nodes, which never runs). Each worker
// binds privately: memo rows are single-writer state — and so the "bind"
// child the binding time accumulates into, given a span, sums over workers.
func boundPlans(opts ParallelOptions, focus [][]rdfgraph.ID, g rdfgraph.Reader) []*plan.Bound {
	if opts.Plans == nil {
		return nil
	}
	var begin time.Time
	if opts.Span != nil {
		begin = time.Now()
	}
	bounds := make([]*plan.Bound, len(focus))
	stop := stopOf(opts.Ctx)
	for i, p := range opts.Plans.Programs {
		if i >= len(focus) {
			break
		}
		if p != nil && len(focus[i]) > 0 {
			bounds[i] = p.Bind(g)
			bounds[i].SetStop(stop)
		}
	}
	if opts.Span != nil {
		opts.Span.AccumChild("bind").Add(time.Since(begin))
	}
	return bounds
}

// releaseBounds hands the bound programs' state back to their Programs'
// pools when a worker is done.
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
// children, unit counts, and path searches summed at worker exit. All
// methods no-op (one branch) without a parent span.
type workerSpanState struct {
	parent *obs.Span // span exec breakdown children accumulate under
}

// begin returns the unit start time, zero without a parent span —
// time.Now is not called at all on the untraced hot path.
func (w *workerSpanState) begin() time.Time {
	if w.parent == nil {
		return time.Time{}
	}
	return time.Now()
}

// finish attributes one finished work unit to the plan-exec/ast-exec
// breakdown child.
func (w *workerSpanState) finish(begin time.Time, planned bool) {
	if w.parent == nil {
		return
	}
	w.parent.AddAttrInt("units", 1)
	exec := "ast-exec"
	if planned {
		exec = "plan-exec"
	}
	w.parent.AccumChild(exec).Add(time.Since(begin))
}

// done sums the worker's path searches into the parent span.
func (w *workerSpanState) done(bounds []*plan.Bound) {
	if w.parent == nil || bounds == nil {
		return
	}
	var searches int64
	for _, b := range bounds {
		if b != nil {
			searches += int64(b.Searches())
		}
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
	if opts.Plans != nil {
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
	ids, _, err := x.FragmentParallelIDs(requests, opts)
	if err != nil {
		return nil, err
	}
	return x.ev.G.Dict().DecodeTriples(ids), nil
}

// FragmentParallelIDs is FragmentParallel short of decoding: the fragment
// as dictionary-encoded triples in canonical order
// (rdfgraph.SortIDTriples), which is what a serving route streams from and
// live maintenance diffs. nodes counts the focus nodes visited, summed over
// the requests.
func (x *Extractor) FragmentParallelIDs(requests []shape.Shape, opts ParallelOptions) (triples []rdfgraph.IDTriple, nodes int, err error) {
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
		nnfs[i] = shape.NNF(phi)
	}
	focus, total := x.focusNodes(nnfs)
	nnfSpan.End()
	spanAttrs(opts, workers, len(requests), total)

	var units []unit
	for req, nodes := range focus {
		units = appendUnits(units, req, nodes, workers)
	}
	if workers > len(units) {
		workers = max(len(units), 1) // an idle worker would still bind every plan
	}

	outs := make([]*rdfgraph.IDTripleSet, workers)
	defer func() {
		for _, o := range outs {
			if o != nil && o.Len() <= rdfgraph.MaxPooled {
				o.Reset() // keeps its table and triple array
				accumulators.Put(o)
			}
		}
	}()
	var next atomic.Int64
	var cancelled atomic.Bool
	var panicked atomic.Pointer[PanicError] // the first worker panic
	// work is one worker: it takes units off the shared counter into out
	// until none are left, opts.Ctx ends or another worker panicked. A nil
	// wx, the AST walker, is built with its visited set on the first unit
	// without a bound program: a worker whose units all run on plans builds
	// neither.
	work := func(wx *Extractor, out *rdfgraph.IDTripleSet) {
		spans := workerSpanState{parent: opts.Span}
		bounds := boundPlans(opts, focus, g)
		defer releaseBounds(bounds)
		defer spans.done(bounds)
		var visited map[VisitKey]struct{}
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
			if b != nil {
				b.CollectAllInto(u.nodes, out)
			} else {
				if wx == nil {
					wx = NewExtractor(g, x.ev.Defs)
					wx.ev.SetStop(stopOf(opts.Ctx))
				}
				if visited == nil {
					visited = make(map[VisitKey]struct{})
				}
				for _, v := range u.nodes {
					wx.collect(v, nnfs[u.req], out, visited)
				}
			}
			spans.finish(begin, b != nil)
		}
	}
	if workers == 1 {
		// On the calling goroutine and extractor: its evaluator caches keep
		// accumulating across calls, and a panic reaches the recover above.
		outs[0] = accumulators.Get().(*rdfgraph.IDTripleSet)
		x.ev.SetStop(stopOf(opts.Ctx))
		defer x.ev.SetStop(nil) // x outlives the call (the server pools it)
		work(x, outs[0])
	} else {
		var wg sync.WaitGroup
		for w := range outs {
			out := accumulators.Get().(*rdfgraph.IDTripleSet)
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
				work(nil, out)
			}()
		}
		wg.Wait()
	}
	if pe := panicked.Load(); pe != nil {
		return nil, total, pe
	}
	if cancelled.Load() {
		return nil, total, opts.Ctx.Err()
	}
	defer opts.Span.StartChild("merge").End()
	// The union grows the first worker's set, whose table the pool keeps,
	// so the fragment is listed once, at its distinct count, and sorted.
	for _, o := range outs[1:] {
		outs[0].AddSet(o)
	}
	triples = outs[0].AppendTo(make([]rdfgraph.IDTriple, 0, outs[0].Len()))
	rdfgraph.SortIDTriples(g.Dict(), triples)
	return triples, total, nil
}

// accumulators recycles FragmentParallelIDs' per-worker triple sets across
// calls, up to rdfgraph.MaxPooled triples.
var accumulators = sync.Pool{New: func() any { return rdfgraph.NewIDTripleSet() }}

// focusNodes returns, per normalized request, the nodes extraction visits
// (shape.Evaluator.FocusNodes), and the total over requests.
func (x *Extractor) focusNodes(nnfs []shape.Shape) (focus [][]rdfgraph.ID, total int) {
	focus = make([][]rdfgraph.ID, len(nnfs))
	var all []rdfgraph.ID
	for i, phi := range nnfs {
		focus[i] = x.ev.FocusNodes(phi, &all)
		total += len(focus[i])
	}
	return focus, total
}

// unit is one stealable piece of work: a run of one request's focus nodes.
type unit struct {
	req   int
	nodes []rdfgraph.ID
}

// appendUnits chunks a request's focus nodes into one unit per worker. A
// unit is a source set (plan.Bound.CollectAllInto: one product search per
// path however many nodes), so it is a worker's whole share — split further
// it repeats searches over nearly the same ground.
func appendUnits(units []unit, req int, nodes []rdfgraph.ID, workers int) []unit {
	chunk := (len(nodes) + workers - 1) / workers
	for lo := 0; lo < len(nodes); lo += chunk {
		units = append(units, unit{req: req, nodes: nodes[lo:min(lo+chunk, len(nodes))]})
	}
	return units
}
