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
	// Workers is the most extraction goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). A unit of work is one request's focus set, so
	// no more run than there are requests. One worker runs the same unit
	// loop on the calling goroutine.
	Workers int
	// Cache is ignored: a fragment is one union over its focus nodes, and
	// per-node reuse is NeighborhoodsCached's. The field stays only so the
	// frozen bench/ module compiles (ROADMAP item 1 deletes it; check.sh
	// rejects any reader in this package).
	Cache *NeighborhoodCache
	// Ctx, when non-nil, aborts extraction between work units and inside a
	// path search (polled every few thousand product edges, so one source
	// under a star path on a hub is interruptible); the error returned is
	// ctx.Err(), or context.DeadlineExceeded once ctx's deadline has passed
	// (ctxErr). Used by the HTTP server for request timeouts.
	Ctx context.Context
	// Epoch is ignored, like Cache, and kept for the same reason.
	Epoch uint64
	// Plans holds the requests' compiled programs, one per request in
	// order (plan.CompileAll over them), which find every work unit's foci
	// and extract it — the same triples as the AST walker's Fragment, which
	// the parity suites gate byte for byte. Nil compiles them for this call
	// alone; a caller extracting more than once compiles once and passes
	// the set, whose programs then keep their foci per snapshot.
	Plans *plan.Set
	// Span, when non-nil, is the parent span extraction records under (the
	// serving layer passes the request's "extract" span): the sub-stages
	// "nnf" (request normalization and focus lookup) and "merge" (union of
	// the per-worker triple sets), which the server also reads as stages;
	// the "bind" and "plan-exec" accumulators, summed over workers — plus
	// instructions / searches / units / workers attributes. A nil Span (the
	// CLI, benchmarks) keeps the hot path free of any timing.
	Span *obs.Span
}

// stopOf returns what path searches poll to learn that the request's context
// ended, nil without one. A search it stops panics with paths.ErrStopped, so
// it is installed only where that is recovered: on FragmentParallel's bound
// programs, on NeighborhoodsCached's miss path, and by WithStop.
func stopOf(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool { return ctxErr(ctx) != nil }
}

// ctxErr is ctx.Err(), except that a deadline already past reads as
// context.DeadlineExceeded before the runtime timer that ends ctx has run:
// on a loaded machine that timer can run milliseconds late, and a request
// budget bounds compute, not timer delivery. A nil ctx never ends.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// WithStop runs fn while the path searches of x's AST walker poll ctx: one
// that ctx ends mid-search unwinds fn and comes back as ctx.Err(), nothing
// partial memoized. For callers that walk through x directly, as /explain
// does.
func (x *Extractor) WithStop(ctx context.Context, fn func() error) (err error) {
	x.ev.SetStop(stopOf(ctx))
	defer func() {
		x.ev.SetStop(nil) // x may outlive the call, and its other callers recover nothing
		if r := recover(); r == paths.ErrStopped {
			err = ctxErr(ctx)
		} else if r != nil {
			panic(r)
		}
	}()
	return fn()
}

// collectPlanned extracts unit u on its request's program p, bound for the
// unit alone — a request is one unit, so no other would reuse the binding —
// and released when it is done, a panic included. It returns the product
// searches the unit ran. Memo rows are single-writer state, so the binding
// is the worker's own; given a span, its time accumulates into the "bind"
// child, summed over workers.
func collectPlanned(p *plan.Program, u unit, g rdfgraph.Reader, stop func() bool, sp *obs.Span, out *rdfgraph.IDTripleSet) int {
	var begin time.Time
	if sp != nil {
		begin = time.Now()
	}
	b := p.Bind(g)
	defer b.Release()
	b.SetStop(stop)
	if sp != nil {
		sp.AccumChild("bind").Add(time.Since(begin))
	}
	b.CollectAllInto(u.nodes, out)
	return b.Searches()
}

// finishUnit attributes one finished work unit to the span: its count, its
// product searches, and its wall time in the plan-exec child. begin is
// zero, and nothing is recorded, without a span.
func finishUnit(sp *obs.Span, begin time.Time, searches int) {
	if sp == nil {
		return
	}
	sp.AddAttrInt("units", 1)
	if searches > 0 {
		sp.AddAttrInt("searches", int64(searches))
	}
	sp.AccumChild("plan-exec").Add(time.Since(begin))
}

// spanAttrs stamps the request-level attributes a traced extraction
// carries: worker count, request count, focus nodes visited (summed over
// the requests), and the compiled instruction count.
func spanAttrs(sp *obs.Span, plans *plan.Set, workers, nreq, nnodes int) {
	if sp == nil {
		return
	}
	sp.SetAttrInt("workers", int64(workers))
	sp.SetAttrInt("requests", int64(nreq))
	sp.SetAttrInt("nodes", int64(nnodes))
	sp.SetAttrInt("instructions", int64(plans.NumInstrs()))
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

// FragmentParallel computes Frag(G, S) like Fragment, fanning the requests
// out over a worker pool (FragmentParallelIDs), and decodes the result.
func (x *Extractor) FragmentParallel(requests []shape.Shape, opts ParallelOptions) ([]rdf.Triple, error) {
	ids, _, err := FragmentParallelIDs(x.ev.G, x.ev.Defs, requests, opts)
	if err != nil {
		return nil, err
	}
	return x.ev.G.Dict().DecodeTriples(ids), nil
}

// FragmentParallelIDs computes Frag(G, S) over g in the context of defs, as
// dictionary-encoded triples in canonical order (rdfgraph.SortIDTriples),
// which is what a serving route streams from and live maintenance diffs.
// A request's focus nodes are one unit of work, so a one-request call runs
// on the calling goroutine. Each request visits its program's focus nodes
// (plan.Program.FocusNodes: its candidates where its syntax yields them,
// all of N(G) otherwise — a node outside the candidates does not conform,
// so its neighborhood is empty and skipping it changes nothing), found once
// per snapshot and shared. A unit runs on its request's compiled program
// (ParallelOptions.Plans), bound for the unit alone; each worker owns its
// triple accumulator, and the per-worker sets are unioned at the end, so
// the result is exactly Fragment's (the union of neighborhoods is
// order-independent), in identical canonical order. nodes counts the focus
// nodes visited, summed over the requests.
//
// The graph must not be mutated during the call. All evaluation and
// extraction paths are read-only on the graph — freeze it (Graph.Freeze) to
// have that enforced.
//
// A panic during extraction, on the calling goroutine (set-up and the
// one-worker path) or on a worker, comes back as a *PanicError — except
// paths.ErrStopped, a search noticing that opts.Ctx ended, which comes back
// as opts.Ctx.Err() like a cancellation between work units.
func FragmentParallelIDs(g rdfgraph.Reader, defs shape.Defs, requests []shape.Shape, opts ParallelOptions) (triples []rdfgraph.IDTriple, nodes int, err error) {
	defer func() {
		if r := recover(); r == paths.ErrStopped {
			triples, err = nil, ctxErr(opts.Ctx)
		} else if r != nil {
			triples, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plans := opts.Plans
	if plans == nil {
		plans = plan.CompileAll(requests, defs)
	}
	// The nnf stage is the focus lookup, which normalizes each request on
	// first ask (shape.NNF memoizes on the node).
	nnfSpan := opts.Span.StartChild("nnf")
	var units []unit
	total := 0
	for req := range requests {
		if nodes := plans.Programs[req].FocusNodes(g); len(nodes) > 0 {
			units = append(units, unit{req: req, nodes: nodes})
			total += len(nodes)
		}
	}
	nnfSpan.End()
	spanAttrs(opts.Span, plans, workers, len(requests), total)

	if workers > len(units) {
		workers = max(len(units), 1) // an idle worker would still take a goroutine and an accumulator
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
	stop := stopOf(opts.Ctx)
	// work is one worker: it takes units off the shared counter into out
	// until none are left, opts.Ctx ends or another worker panicked.
	work := func(out *rdfgraph.IDTripleSet) {
		for {
			if ctxErr(opts.Ctx) != nil {
				cancelled.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(units) || panicked.Load() != nil {
				return
			}
			u := units[i]
			var begin time.Time
			if opts.Span != nil {
				begin = time.Now()
			}
			searches := collectPlanned(plans.Programs[u.req], u, g, stop, opts.Span, out)
			finishUnit(opts.Span, begin, searches)
		}
	}
	if workers == 1 {
		// On the calling goroutine: a panic reaches the recover above.
		outs[0] = accumulators.Get().(*rdfgraph.IDTripleSet)
		work(outs[0])
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
				work(out)
			}()
		}
		wg.Wait()
	}
	if pe := panicked.Load(); pe != nil {
		return nil, total, pe
	}
	if cancelled.Load() {
		return nil, total, ctxErr(opts.Ctx)
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

// unit is one stealable piece of work: one request's whole focus set. It is
// a source set (plan.Bound.CollectAllInto: one product search per path
// however many nodes), and the foci of one request reach nearly the same
// product states, so a split would repeat the search in every part; workers
// fan out across requests instead. nodes is the program's shared focus
// list (plan.Program.FocusNodes), read only.
type unit struct {
	req   int
	nodes []rdfgraph.ID
}
