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

// resolution is a Program's operands looked up in one dictionary: predicate
// and constant IDs, allowed-predicate sets, and the automaton of every path
// slot that is not atomic. It depends on nothing but the dictionary, and a
// dictionary only grows, so while its length is unchanged every lookup gives
// the same answer: (dict, terms) is the key. Read-only once built, it is
// shared by every Bound on that dictionary, concurrent ones included.
type resolution struct {
	dict  *rdfgraph.Dict
	terms int

	atomics []atomicPath    // per path slot: ok for a bare property or its inverse
	nfas    []*paths.NFA    // per path slot: compiled where the slot is not atomic
	preds   []rdfgraph.ID   // per instruction: resolved Pred (NoID if absent)
	consts  []rdfgraph.ID   // per instruction: resolved Const for OpHasValue
	allowed [][]rdfgraph.ID // per instruction: sorted allowed-predicate IDs
}

// resolve returns p's resolution against g's dictionary, building it when
// the one p keeps is for another dictionary or an earlier length of this one.
// Each epoch has a dictionary of its own, so a new epoch resolves once.
func (p *Program) resolve(g rdfgraph.Reader) *resolution {
	d := g.Dict()
	if r := p.res.Load(); r != nil && r.dict == d && r.terms == d.Len() {
		return r
	}
	r := &resolution{
		dict:    d,
		terms:   d.Len(),
		atomics: make([]atomicPath, len(p.Paths)),
		nfas:    make([]*paths.NFA, len(p.Paths)),
		preds:   make([]rdfgraph.ID, len(p.Instrs)),
		consts:  make([]rdfgraph.ID, len(p.Instrs)),
		allowed: make([][]rdfgraph.ID, len(p.Instrs)),
	}
	for i, e := range p.Paths {
		switch x := e.(type) {
		case paths.Prop:
			r.atomics[i] = atomicPath{ok: true, fwd: true, pred: g.LookupTerm(rdf.NewIRI(x.IRI))}
			continue
		case paths.Inverse:
			if pr, ok := x.X.(paths.Prop); ok {
				r.atomics[i] = atomicPath{ok: true, fwd: false, pred: g.LookupTerm(rdf.NewIRI(pr.IRI))}
				continue
			}
		}
		r.nfas[i] = paths.Compile(e, g)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		r.preds[i] = rdfgraph.NoID
		r.consts[i] = rdfgraph.NoID
		if in.Pred != "" {
			r.preds[i] = g.LookupTerm(rdf.NewIRI(in.Pred))
		}
		if in.Op == OpHasValue {
			r.consts[i] = g.LookupTerm(in.Const)
		}
		if in.Op == OpClosed {
			ids := make([]rdfgraph.ID, 0, len(in.Allowed))
			for _, iri := range in.Allowed {
				if id := g.LookupTerm(rdf.NewIRI(iri)); id != rdfgraph.NoID {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			r.allowed[i] = ids
		}
	}
	p.res.Store(r)
	return r
}

// Bound is a Program bound to one graph: the resolution of its dictionary,
// path evaluators over the graph, and per-instruction memo and visited rows.
// A Bound is single-goroutine state, like shape.Evaluator and
// core.Extractor; FragmentParallel gives each worker its own. All evaluation
// and extraction through a Bound is read-only on the graph.
//
// Memory: a row is a directory of pages of pageSize nodes, and a page is
// taken the first time one of its nodes is touched, so the rows grow with
// the (instruction, node) pairs a request decides, like the AST walker's
// memo, and never past one byte per instruction and dictionary term each.
// The scratch and evaluators are the Program's, pooled: Release hands them
// back for the next Bind of the same Program, on this epoch or a later one.
// The pages go back to a pool every Program's Bounds take from.
type Bound struct {
	*state // nil once released, so that use panics
}

// state is what a Bound writes: taken from its Program's pool by Bind and
// put back by Release.
type state struct {
	prog *Program
	g    rdfgraph.Reader
	*resolution

	// pes holds a product-automaton evaluator per slot the resolution
	// compiled an NFA for, over the automata in built: they are rebuilt only
	// when the resolution's differ, and Reset on every other Bind. A
	// released state keeps them, but no resolution, so it pins no dictionary.
	pes   []*paths.Evaluator
	built []*paths.NFA

	// memo rows hold conformance per (instruction, node): 0 unknown,
	// 1 conforms, 2 does not, for the lifetime of the Bound — the paged
	// replacement for the evaluator's map[shape, node]bool.
	memo [][]*page
	// visited rows carry generation stamps for Table 2's visited set;
	// ResetVisited bumps gen instead of clearing, and pages are wiped only
	// when the uint8 generation wraps.
	visited [][]*page
	gen     uint8
	// spare holds zeroed pages for the ones this request touches, taken by
	// Bind and put back, with those, by Release: the pages in memo and
	// visited are exactly the ones it touched.
	spare *pageSet

	// decided holds, per ≥1 instruction over an automaton slot, the sources
	// decide last searched from and the witnesses it found among their
	// E-values, so that collect traces from them instead of searching again.
	// Like the memo rows they read against, they hold for the Bound's
	// lifetime; unlike them they are reused across Binds.
	decided []decision

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

// Bind binds p to g. It costs a pool take when p has already been bound to
// g's dictionary at its current length: the operands are looked up and the
// automata compiled once per dictionary (resolve), and the pages are
// taken lazily, as nodes are first touched, from those earlier requests
// released.
func (p *Program) Bind(g rdfgraph.Reader) *Bound {
	res := p.resolve(g)
	s, _ := p.states.Get().(*state)
	if s == nil {
		s = &state{
			prog:    p,
			pes:     make([]*paths.Evaluator, len(p.Paths)),
			memo:    make([][]*page, len(p.Instrs)),
			visited: make([][]*page, len(p.Instrs)),
			decided: make([]decision, len(p.Instrs)),
			gen:     1,
		}
		s.appendID = func(id rdfgraph.ID) { s.ids = append(s.ids, id) }
	}
	s.g, s.resolution, s.spare = g, res, sparePages.Get().(*pageSet)
	if !slices.Equal(s.built, res.nfas) {
		s.built = res.nfas
		for i, n := range res.nfas {
			if n != nil {
				s.pes[i] = paths.NewNFAEvaluator(n, g)
			}
		}
	} else {
		for _, pe := range s.pes {
			if pe != nil {
				pe.Reset(g)
			}
		}
	}
	return &Bound{s}
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

// maxPooledScratch bounds the per-depth scratch a released state keeps, in
// bytes, like the path searches' own ceiling: a witness list the size of a
// large graph's node set is dropped rather than pinned. It bounds the page
// directories a released state keeps the same way.
const maxPooledScratch = 4 << 20

// A page of a memo or visited row covers pageSize nodes.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
)

// page is one pageSize-node stretch of a row.
type page [pageSize]uint8

// maxSparePages bounds the zeroed pages a released set keeps: 64 MiB.
const maxSparePages = 64 << 20 / pageSize

// cell reads node v's byte in instruction i's row of rows: 0 where v's page
// was never taken. It is the probe every memo and visited check makes, kept
// small enough to inline; touch is the write side.
func (s *state) cell(rows [][]*page, i int32, v rdfgraph.ID) uint8 {
	if dir, k := rows[i], uint(v>>pageShift); k < uint(len(dir)) {
		if pg := dir[k]; pg != nil {
			return pg[v&(pageSize-1)]
		}
	}
	return 0
}

// touch returns node v's byte in instruction i's row of rows to write, first
// growing the directory to cover v and putting a zeroed page where v's is
// missing. A page never moves while the Bound holds it.
func (s *state) touch(rows [][]*page, i int32, v rdfgraph.ID) *uint8 {
	k := int(v >> pageShift)
	dir := rows[i]
	if k >= len(dir) {
		dir = append(dir, make([]*page, k+1-len(dir))...)
		rows[i] = dir
	}
	if dir[k] == nil {
		dir[k] = s.spare.take()
	}
	return &dir[k][v&(pageSize-1)]
}

// pageSet is a stack of zeroed pages, any row's for the taking. Sets pass
// between the Bounds of all Programs through sparePages, so a request takes
// the pages a recent one cleared, still in cache, and the pool pins the
// pages of the requests in flight, not those of every Program.
type pageSet struct{ pages []*page }

var sparePages = sync.Pool{New: func() any { return new(pageSet) }}

// take pops a spare page, or allocates one when none is left.
func (ps *pageSet) take() *page {
	n := len(ps.pages)
	if n == 0 {
		return new(page)
	}
	pg := ps.pages[n-1]
	ps.pages = ps.pages[:n-1]
	return pg
}

// Release hands b's state back to its Program for a later Bind to take —
// its evaluators holding no graph, memo or stop, and no resolution — and
// the pages the request touched, zeroed, and the searches' scratch back to
// their process-wide pools. Call it when extraction through b is over. It
// is optional — a Bound never released is not recycled — and final: use of
// b after it panics.
func (b *Bound) Release() {
	s := b.state
	b.state = nil
	for _, pe := range s.pes {
		if pe != nil {
			pe.Reset(nil)
			pe.Release()
		}
	}
	spare, dirBytes := s.spare, 0
	for _, rows := range [][][]*page{s.memo, s.visited} {
		for _, dir := range rows {
			for k, pg := range dir {
				if pg != nil {
					*pg = page{}
					spare.pages = append(spare.pages, pg)
					dir[k] = nil
				}
			}
			dirBytes += 8 * cap(dir)
		}
	}
	if dirBytes > maxPooledScratch {
		clear(s.memo)
		clear(s.visited)
	}
	if len(spare.pages) > maxSparePages {
		clear(spare.pages[maxSparePages:])
		spare.pages = spare.pages[:maxSparePages]
	}
	sparePages.Put(spare)
	scratchBytes := 0
	for _, pool := range [][][]rdfgraph.ID{s.succ, s.vals, s.wit, s.srcs} {
		for _, buf := range pool {
			scratchBytes += 4 * cap(buf)
		}
	}
	for k := range s.decided {
		dc := &s.decided[k]
		dc.srcs, dc.wit = dc.srcs[:0], dc.wit[:0]
		scratchBytes += 4 * (cap(dc.srcs) + cap(dc.wit))
	}
	if scratchBytes > maxPooledScratch {
		s.succ, s.vals, s.wit, s.srcs = nil, nil, nil, nil
		clear(s.decided)
	}
	s.g, s.resolution, s.spare, s.ids, s.depth, s.gen, s.Checks = nil, nil, nil, nil, 0, 1, 0
	s.prog.states.Put(s)
}

// Conforms reports H, G, v ⊨ φᵢ for instruction i, memoized in its row.
func (b *Bound) Conforms(v rdfgraph.ID, i int32) bool {
	if m := b.cell(b.memo, i, v); m != 0 {
		return m == 1
	}
	b.Checks++
	res := b.eval(v, i)
	b.setMemo(i, v, res)
	return res
}

// setMemo records the verdict res of instruction i at v.
func (b *Bound) setMemo(i int32, v rdfgraph.ID, res bool) {
	m := b.touch(b.memo, i, v)
	*m = 2
	if res {
		*m = 1
	}
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
