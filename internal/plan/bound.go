package plan

import (
	"slices"
	"sync"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// atomicPath is the bind-time resolution of a path slot whose expression is
// a bare property or its inverse: successor enumeration and trace collapse
// to single index lookups, bypassing the product automaton entirely.
type atomicPath struct {
	ok   bool
	fwd  bool
	pred rdfgraph.ID
}

// Bound is a Program resolved against one graph: predicate and constant
// IDs looked up, path evaluators built, and dense per-instruction memo and
// visited arrays ready. A Bound is single-goroutine state, like
// shape.Evaluator and core.Extractor; FragmentParallel gives each worker
// its own. All evaluation and extraction through a Bound is read-only on
// the graph.
//
// Memory: the memo and visited rows cost about 2 bytes × instructions ×
// dictionary terms once every instruction has been touched. MemoBytes
// reports the full-population bound, and a binder binds only a program that
// Fits the graph's dictionary — otherwise that request runs on the AST
// walker, whose memo grows with the nodes visited. The rows come from a
// process-wide pool; Release hands them back.
type Bound struct {
	prog *Program
	g    rdfgraph.Reader

	// Per-path-slot machinery: atomic fast paths resolved, product-automaton
	// evaluators built only for the slots that need one.
	atomics []atomicPath
	pes     []*paths.Evaluator

	preds   []rdfgraph.ID   // per instruction: resolved Pred (NoID if absent)
	consts  []rdfgraph.ID   // per instruction: resolved Const for OpHasValue
	allowed [][]rdfgraph.ID // per instruction: sorted allowed-predicate IDs

	// memo rows hold conformance per (instruction, node): 0 unknown,
	// 1 conforms, 2 does not. Rows are allocated on an instruction's first
	// evaluation and persist for the lifetime of the Bound — the dense
	// replacement for the evaluator's map[shape, node]bool.
	memo [][]uint8
	// visited rows carry generation stamps for Table 2's visited set;
	// ResetVisited bumps gen instead of clearing, and rows are wiped only
	// when the uint8 generation wraps.
	visited [][]uint8
	gen     uint8

	// Per-depth scratch for successor, property-value, witness and focus
	// lists, reused across focus nodes; depth is the nesting level. wit and
	// srcs are apart because Table 2 rows filter values into witnesses, and
	// nodes into foci, that must survive the trace and the recursion.
	succ  [][]rdfgraph.ID
	vals  [][]rdfgraph.ID
	wit   [][]rdfgraph.ID
	srcs  [][]rdfgraph.ID
	depth int

	// ids is the list appendID grows: the graph callback of pathValues and
	// propValues, bound once here because a func literal at the call would
	// escape through the Reader interface and be heap-allocated per call.
	ids      []rdfgraph.ID
	appendID func(rdfgraph.ID)

	// langs is the uniqueLang scratch map, cleared per evaluation.
	langs map[string]rdfgraph.ID

	// Checks counts conformance evaluations actually run (memo misses),
	// mirroring shape.Evaluator.Checks.
	Checks int
}

// Bind resolves p against g. Binding is cheap relative to extraction: IRI
// lookups for every operand plus NFA compilation for non-atomic paths; the
// dense arrays are allocated lazily as instructions are first evaluated.
func (p *Program) Bind(g rdfgraph.Reader) *Bound {
	b := &Bound{
		prog:    p,
		g:       g,
		atomics: make([]atomicPath, len(p.Paths)),
		pes:     make([]*paths.Evaluator, len(p.Paths)),
		preds:   make([]rdfgraph.ID, len(p.Instrs)),
		consts:  make([]rdfgraph.ID, len(p.Instrs)),
		allowed: make([][]rdfgraph.ID, len(p.Instrs)),
		memo:    make([][]uint8, len(p.Instrs)),
		visited: make([][]uint8, len(p.Instrs)),
		gen:     1,
	}
	b.appendID = func(id rdfgraph.ID) { b.ids = append(b.ids, id) }
	for i, e := range p.Paths {
		switch x := e.(type) {
		case paths.Prop:
			b.atomics[i] = atomicPath{ok: true, fwd: true, pred: g.LookupTerm(rdf.NewIRI(x.IRI))}
			continue
		case paths.Inverse:
			if pr, ok := x.X.(paths.Prop); ok {
				b.atomics[i] = atomicPath{ok: true, fwd: false, pred: g.LookupTerm(rdf.NewIRI(pr.IRI))}
				continue
			}
		}
		b.pes[i] = paths.NewEvaluator(e, g)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		b.preds[i] = rdfgraph.NoID
		b.consts[i] = rdfgraph.NoID
		if in.Pred != "" {
			b.preds[i] = g.LookupTerm(rdf.NewIRI(in.Pred))
		}
		if in.Op == OpHasValue {
			b.consts[i] = g.LookupTerm(in.Const)
		}
		if in.Op == OpClosed {
			ids := make([]rdfgraph.ID, 0, len(in.Allowed))
			for _, iri := range in.Allowed {
				if id := g.LookupTerm(rdf.NewIRI(iri)); id != rdfgraph.NoID {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			b.allowed[i] = ids
		}
	}
	return b
}

// SetStop installs stop on the path evaluators of b: their searches panic
// with paths.ErrStopped once it reports true (paths.Evaluator.SetStop).
func (b *Bound) SetStop(stop func() bool) {
	for _, pe := range b.pes {
		if pe != nil {
			pe.SetStop(stop)
		}
	}
}

// Searches sums the forward product searches b's path evaluators have run
// (paths.Evaluator.Searches) — surfaced as the searches span attribute.
func (b *Bound) Searches() int {
	n := 0
	for _, pe := range b.pes {
		if pe != nil {
			n += pe.Searches
		}
	}
	return n
}

// Graph returns the bound graph.
func (b *Bound) Graph() rdfgraph.Reader { return b.g }

// Program returns the compiled program.
func (b *Bound) Program() *Program { return b.prog }

// MemoBudget bounds the dense memo memory one bound program may pin (per
// worker — every worker binds its own).
const MemoBudget = 64 << 20

// MemoBytes estimates the fully-populated dense-array footprint of binding
// p to a dictionary of dictTerms entries: memo plus visited rows for every
// instruction.
func (p *Program) MemoBytes(dictTerms int) int64 {
	return 2 * int64(len(p.Instrs)) * int64(dictTerms)
}

// Fits reports whether binding p to a dictionary of dictTerms entries stays
// within MemoBudget — the one check every binder (core.FragmentParallel,
// live.Maintainer) makes, against the snapshot the work runs on.
func (p *Program) Fits(dictTerms int) bool {
	return p.MemoBytes(dictTerms) <= MemoBudget
}

// rowPool recycles memo and visited rows across Bounds: a request binds
// per worker, and a dictionary-sized row per touched instruction each time
// was most of what shape-scan allocated. Every row in it is all zero up to
// its capacity; one too short for the dictionary at hand is dropped.
var rowPool sync.Pool

// row returns instruction i's slice from rows, grown to cover node v.
func (b *Bound) row(rows [][]uint8, i int32, v rdfgraph.ID) []uint8 {
	r := rows[i]
	if int(v) < len(r) {
		return r
	}
	n := b.g.Dict().Len()
	if n <= int(v) {
		n = int(v) + 1
	}
	var nr []uint8
	if p, _ := rowPool.Get().(*[]uint8); p != nil && cap(*p) >= n {
		nr = (*p)[:n]
	} else {
		nr = make([]uint8, n)
	}
	copy(nr, r)
	rows[i] = nr
	return nr
}

// Release hands the memo and visited rows back, zeroed, and the path
// evaluators' scratch (paths.Evaluator.Release), for a later Bound to take;
// call it when extraction through b is over. It is optional — a Bound never
// released is not recycled — and final: use of b after it panics.
func (b *Bound) Release() {
	for _, pe := range b.pes {
		if pe != nil {
			pe.Release()
		}
	}
	for _, rows := range [][][]uint8{b.memo, b.visited} {
		for _, r := range rows {
			if r != nil {
				clear(r)
				rowPool.Put(&r)
			}
		}
	}
	b.memo, b.visited = nil, nil
}

// Conforms reports H, G, v ⊨ φᵢ for instruction i, memoized densely.
func (b *Bound) Conforms(v rdfgraph.ID, i int32) bool {
	r := b.row(b.memo, i, v)
	if m := r[v]; m != 0 {
		return m == 1
	}
	b.Checks++
	res := b.eval(v, i)
	// Recursive evaluation may have regrown the row; write through b.memo.
	if res {
		b.memo[i][v] = 1
	} else {
		b.memo[i][v] = 2
	}
	return res
}

// ConformsRoot reports conformance to the program's root shape.
func (b *Bound) ConformsRoot(v rdfgraph.ID) bool { return b.Conforms(v, b.prog.Root) }

// scratch returns the depth-d buffer of pool, truncated to empty.
func scratch(pool *[][]rdfgraph.ID, d int) []rdfgraph.ID {
	for len(*pool) <= d {
		*pool = append(*pool, nil)
	}
	return (*pool)[d][:0]
}

// putScratch stores the (possibly regrown) buffer back in its slot.
func putScratch(pool *[][]rdfgraph.ID, d int, buf []rdfgraph.ID) {
	(*pool)[d] = buf
}

// pathValues returns ⟦E⟧G(v) for path slot, sorted and duplicate-free. For
// atomic slots the result lives in the depth-d succ scratch buffer (valid
// until the next depth-d use); for automaton slots it is the evaluator's
// memoized slice. Callers must not retain or modify it.
func (b *Bound) pathValues(slot int32, v rdfgraph.ID, d int) []rdfgraph.ID {
	if a := b.atomics[slot]; a.ok {
		b.ids = scratch(&b.succ, d)
		if a.pred != rdfgraph.NoID {
			if a.fwd {
				b.g.Objects(v, a.pred, b.appendID)
			} else {
				b.g.Subjects(a.pred, v, b.appendID)
			}
		}
		slices.Sort(b.ids)
		putScratch(&b.succ, d, b.ids)
		return b.ids
	}
	return b.pes[slot].Eval(v)
}

// propValues returns ⟦p⟧G(v) for instruction i's Pred operand, sorted, in
// the depth-d vals scratch buffer.
func (b *Bound) propValues(i int32, v rdfgraph.ID, d int) []rdfgraph.ID {
	b.ids = scratch(&b.vals, d)
	if pid := b.preds[i]; pid != rdfgraph.NoID {
		b.g.Objects(v, pid, b.appendID)
		slices.Sort(b.ids)
	}
	putScratch(&b.vals, d, b.ids)
	return b.ids
}

// eval decides instruction i at v. The cases mirror shape.Evaluator.eval
// exactly; any divergence is a parity bug.
func (b *Bound) eval(v rdfgraph.ID, i int32) bool {
	in := &b.prog.Instrs[i]
	switch in.Op {
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpTest:
		return in.Test.Holds(b.g.Term(v))
	case OpHasValue:
		return b.consts[i] != rdfgraph.NoID && v == b.consts[i]
	case OpAnd:
		for _, c := range in.Args {
			if !b.Conforms(v, c) {
				return false
			}
		}
		return true
	case OpOr:
		for _, c := range in.Args {
			if b.Conforms(v, c) {
				return true
			}
		}
		return false
	case OpRef:
		return b.Conforms(v, in.Args[0])
	case OpNeg:
		if in.Name != (rdf.Term{}) {
			// ¬hasShape(s): Args[0] is NNF(¬def(s)), already the negation.
			return b.Conforms(v, in.Args[0])
		}
		return !b.Conforms(v, in.Args[0])
	case OpMin:
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		count := 0
		for _, x := range values {
			if b.Conforms(x, in.Args[0]) {
				count++
				if count >= in.N {
					b.depth--
					return true
				}
			}
		}
		b.depth--
		return count >= in.N // covers n = 0
	case OpMax:
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		count := 0
		for _, x := range values {
			if b.Conforms(x, in.Args[0]) {
				count++
				if count > in.N {
					b.depth--
					return false
				}
			}
		}
		b.depth--
		return true
	case OpForall:
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		for _, x := range values {
			if !b.Conforms(x, in.Args[0]) {
				b.depth--
				return false
			}
		}
		b.depth--
		return true
	case OpEq:
		d := b.depth
		b.depth++
		ok := equalSets(b.idOrPath(in.Path, v, d), b.propValues(i, v, d))
		b.depth--
		return ok
	case OpDisj:
		d := b.depth
		b.depth++
		ok := disjointSets(b.idOrPath(in.Path, v, d), b.propValues(i, v, d))
		b.depth--
		return ok
	case OpClosed:
		ok := true
		ids := b.allowed[i]
		b.g.PredicatesFrom(v, func(p, _ rdfgraph.ID) {
			if !ok {
				return
			}
			if _, found := slices.BinarySearch(ids, p); !found {
				ok = false
			}
		})
		return ok
	case OpLessThan:
		return b.evalOrder(i, v, rdf.Less)
	case OpLessThanEq:
		return b.evalOrder(i, v, rdf.LessEq)
	case OpMoreThan:
		return b.evalOrder(i, v, func(bt, ct rdf.Term) bool { return rdf.Less(ct, bt) })
	case OpMoreThanEq:
		return b.evalOrder(i, v, func(bt, ct rdf.Term) bool { return rdf.LessEq(ct, bt) })
	case OpUniqueLang:
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		if b.langs == nil {
			b.langs = make(map[string]rdfgraph.ID)
		} else {
			clear(b.langs)
		}
		ok := true
		for _, x := range values {
			xt := b.g.Term(x)
			if !xt.IsLiteral() || xt.Lang == "" {
				continue
			}
			if prev, seen := b.langs[xt.Lang]; seen && prev != x {
				ok = false
				break
			}
			b.langs[xt.Lang] = x
		}
		b.depth--
		return ok
	}
	panic("plan: unknown op in eval")
}

// idOrPath returns the F-values of a pair constraint: {v} for id (slot
// NoPath, staged in succ scratch) or the path values.
func (b *Bound) idOrPath(slot int32, v rdfgraph.ID, d int) []rdfgraph.ID {
	if slot == NoPath {
		out := scratch(&b.succ, d)
		out = append(out, v)
		putScratch(&b.succ, d, out)
		return out
	}
	return b.pathValues(slot, v, d)
}

// evalOrder decides the four order constraints: cmp must hold between every
// path value and every property value.
func (b *Bound) evalOrder(i int32, v rdfgraph.ID, cmp func(bt, ct rdf.Term) bool) bool {
	in := &b.prog.Instrs[i]
	d := b.depth
	b.depth++
	defer func() { b.depth-- }()
	cs := b.propValues(i, v, d)
	for _, x := range b.pathValues(in.Path, v, d) {
		bt := b.g.Term(x)
		for _, c := range cs {
			if !cmp(bt, b.g.Term(c)) {
				return false
			}
		}
	}
	return true
}

// equalSets reports equality of two sorted duplicate-free ID sets.
func equalSets(a, c []rdfgraph.ID) bool {
	if len(a) != len(c) {
		return false
	}
	for i := range a {
		if a[i] != c[i] {
			return false
		}
	}
	return true
}

// disjointSets reports disjointness of two sorted ID sets.
func disjointSets(a, c []rdfgraph.ID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(c) {
		switch {
		case a[i] < c[j]:
			i++
		case a[i] > c[j]:
			j++
		default:
			return false
		}
	}
	return true
}
