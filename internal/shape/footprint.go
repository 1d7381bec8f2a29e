package shape

import (
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// MaxFootprintWalk caps the product states one FocusWalker.Focuses walk may
// visit. A walk that would pass it (a star path into a hub, say) gives up
// and reports every node as a reader, so correctness never depends on it.
const MaxFootprintWalk = 4096

// Footprint is the static read automaton of a shape φ: which adjacency
// rows evaluating φ (conformance and Table 2 extraction alike, on the AST
// walker or a compiled plan) from a focus node v can read, each as a
// regular path language leading from v to the row's anchor. A triple
// (s, p, o) changes exactly the rows Objects(s, p), Subjects(p, o),
// PredicatesFrom(s) and PredicatesTo(o), so B(v, G, φ) can differ between
// G and G ± (s, p, o) only if v reaches s or o, in G, along the path prefix
// of a read of one of them. That is the locality behind the paper's
// Sufficiency theorem, applied per focus node.
//
// State 0 is the focus node. A path step p (or p⁻) moves along the graph
// and reads Objects(x, p) (or Subjects(p, x)) where it starts; pair
// constraints read Objects(x, p) of their node; closed(P) reads
// PredicatesFrom(x) whatever the predicate; hasShape(s) is an ε-move into
// def(s, H)'s automaton, built once per name, so recursive schemas are
// finite. Negation changes no read, and nothing reads PredicatesTo. A
// Footprint is immutable once built and safe for concurrent use.
type Footprint struct {
	// back[q] lists the moves arriving at state q.
	back [][]footStep
	// fwd and bwd map a predicate IRI to the states reading its forward
	// (Objects) and backward (Subjects) rows; closed lists the states
	// reading PredicatesFrom.
	fwd, bwd map[string][]int
	closed   []int
	star     bool // some move is under a Kleene star
}

// footStep is one move of the read automaton, stored at its target: from
// the state it leaves, over pred forward or backward; a zero pred is an
// ε-move.
type footStep struct {
	from int
	pred rdf.Term
	fwd  bool
}

// NewFootprint builds φ's read automaton; defs resolves hasShape names
// (nil when φ references none; an undefined name reads nothing, as ⊤).
func NewFootprint(phi Shape, defs Defs) *Footprint {
	b := footBuilder{
		f:     &Footprint{fwd: map[string][]int{}, bwd: map[string][]int{}},
		defs:  defs,
		entry: map[rdf.Term]int{},
	}
	b.shape(phi, b.state())
	return b.f
}

// Reads reports whether a triple with predicate p can change a row φ
// reads: some path step or pair constraint names p, or φ has a closed(P).
func (f *Footprint) Reads(p string) bool {
	return len(f.fwd[p]) > 0 || len(f.bwd[p]) > 0 || len(f.closed) > 0
}

// Predicates lists the predicate IRIs φ's path steps and pair constraints
// name, in no particular order; closed is true when φ has a closed(P),
// whose rows a triple of every predicate changes.
func (f *Footprint) Predicates() (named []string, closed bool) {
	for p := range f.fwd {
		named = append(named, p)
	}
	for p := range f.bwd {
		if len(f.fwd[p]) == 0 {
			named = append(named, p)
		}
	}
	return named, len(f.closed) > 0
}

// HasStar reports whether a path φ reads, through hasShape too, has a
// Kleene star: the reads then have no depth bound, and one neighborhood
// can span a whole reachable subgraph.
func (f *Footprint) HasStar() bool { return f.star }

// FocusWalker runs Footprint walks backwards over one graph, reusing its
// scratch from walk to walk. It is not safe for concurrent use.
type FocusWalker struct {
	g     rdfgraph.Reader
	seen  map[footState]struct{}
	queue []footState
	from  int // the state the current graph callback moves into
	visit func(rdfgraph.ID)
}

// footState is one state of the backward product walk.
type footState struct {
	node  rdfgraph.ID
	state int
}

// NewFocusWalker returns a walker over g: the graph evaluation read, i.e.
// the epoch a delta was applied to.
func NewFocusWalker(g rdfgraph.Reader) *FocusWalker {
	w := &FocusWalker{g: g, seen: map[footState]struct{}{}}
	w.visit = w.visitNode // bound once: a method value per graph call would allocate
	return w
}

// Focuses appends to dst every focus node v whose evaluation of f's shape
// can read a row that the triple (s, p, o) changes — p names the
// predicate, which the graph need not intern — by walking the graph
// backwards from s and o along the inverse of each such read's path
// prefix. Nodes may repeat in dst. ok is false when the walk passed
// MaxFootprintWalk product states: the caller must then take every node as
// a reader.
func (w *FocusWalker) Focuses(f *Footprint, s rdfgraph.ID, p string, o rdfgraph.ID, dst []rdfgraph.ID) (_ []rdfgraph.ID, ok bool) {
	clear(w.seen)
	w.queue = w.queue[:0]
	for _, q := range f.fwd[p] {
		w.push(s, q)
	}
	for _, q := range f.bwd[p] {
		w.push(o, q)
	}
	for _, q := range f.closed {
		w.push(s, q)
	}
	for i := 0; i < len(w.queue) && len(w.seen) <= MaxFootprintWalk; i++ {
		at := w.queue[i]
		if at.state == 0 {
			dst = append(dst, at.node)
		}
		for _, st := range f.back[at.state] {
			w.from = st.from
			switch {
			case st.pred == (rdf.Term{}):
				w.push(at.node, st.from)
			case st.fwd: // (y, pred, x): y is a subject of x
				if pid := w.g.LookupTerm(st.pred); pid != rdfgraph.NoID {
					w.g.Subjects(pid, at.node, w.visit)
				}
			default: // (x, pred, y): y is an object of x
				if pid := w.g.LookupTerm(st.pred); pid != rdfgraph.NoID {
					w.g.Objects(at.node, pid, w.visit)
				}
			}
		}
	}
	return dst, len(w.seen) <= MaxFootprintWalk
}

func (w *FocusWalker) push(n rdfgraph.ID, q int) {
	k := footState{n, q}
	if _, dup := w.seen[k]; dup || len(w.seen) > MaxFootprintWalk {
		return
	}
	w.seen[k] = struct{}{}
	w.queue = append(w.queue, k)
}

func (w *FocusWalker) visitNode(n rdfgraph.ID) { w.push(n, w.from) }

type footBuilder struct {
	f     *Footprint
	defs  Defs
	entry map[rdf.Term]int // hasShape name → its definition's entry state
}

func (b *footBuilder) state() int {
	b.f.back = append(b.f.back, nil)
	return len(b.f.back) - 1
}

func (b *footBuilder) eps(from, to int) {
	b.f.back[to] = append(b.f.back[to], footStep{from: from})
}

// step adds the move over p from q — forward unless fwd is false — and the
// read it makes at q, returning the state it reaches.
func (b *footBuilder) step(q int, p string, fwd bool) int {
	to := b.state()
	b.f.back[to] = append(b.f.back[to], footStep{from: q, pred: rdf.NewIRI(p), fwd: fwd})
	b.read(q, p, fwd)
	return to
}

func (b *footBuilder) read(q int, p string, fwd bool) {
	if fwd {
		b.f.fwd[p] = append(b.f.fwd[p], q)
	} else {
		b.f.bwd[p] = append(b.f.bwd[p], q)
	}
}

// path adds the moves of E from q (of E⁻ when inv) and returns the state
// that ends them: the language of the walks reaching it is q's followed by
// E's.
func (b *footBuilder) path(e paths.Expr, q int, inv bool) int {
	switch x := e.(type) {
	case paths.Prop:
		return b.step(q, x.IRI, !inv)
	case paths.Inverse:
		return b.path(x.X, q, !inv)
	case paths.Seq:
		first, second := x.Left, x.Right
		if inv { // (E1/E2)⁻ = E2⁻/E1⁻
			first, second = second, first
		}
		return b.path(second, b.path(first, q, inv), inv)
	case paths.Alt:
		end := b.state()
		b.eps(b.path(x.Left, q, inv), end)
		b.eps(b.path(x.Right, q, inv), end)
		return end
	case paths.Star:
		b.f.star = true
		loop := b.state()
		b.eps(q, loop)
		b.eps(b.path(x.X, loop, inv), loop)
		return loop
	case paths.ZeroOrOne:
		end := b.state()
		b.eps(q, end)
		b.eps(b.path(x.X, q, inv), end)
		return end
	}
	panic("shape: unknown path expression in footprint")
}

// pair adds the reads of a pair constraint over E (nil for id) and p at q.
func (b *footBuilder) pair(e paths.Expr, p string, q int) {
	if e != nil {
		b.path(e, q, false)
	}
	b.read(q, p, true)
}

func (b *footBuilder) shape(phi Shape, q int) {
	switch x := phi.(type) {
	case *HasShape:
		e, ok := b.entry[x.Name]
		if !ok {
			e = b.state()
			b.entry[x.Name] = e
			if b.defs != nil {
				if def, found := b.defs.Def(x.Name); found {
					b.shape(def, e)
				}
			}
		}
		b.eps(q, e)
	case *Not:
		b.shape(x.X, q)
	case *And:
		for _, c := range x.Xs {
			b.shape(c, q)
		}
	case *Or:
		for _, c := range x.Xs {
			b.shape(c, q)
		}
	case *MinCount:
		b.shape(x.X, b.path(x.Path, q, false))
	case *MaxCount:
		b.shape(x.X, b.path(x.Path, q, false))
	case *Forall:
		b.shape(x.X, b.path(x.Path, q, false))
	case *Eq:
		b.pair(x.Path, x.P, q)
	case *Disj:
		b.pair(x.Path, x.P, q)
	case *LessThan:
		b.pair(x.Path, x.P, q)
	case *LessThanEq:
		b.pair(x.Path, x.P, q)
	case *MoreThan:
		b.pair(x.Path, x.P, q)
	case *MoreThanEq:
		b.pair(x.Path, x.P, q)
	case *UniqueLang:
		b.path(x.Path, q, false)
	case *Closed:
		b.f.closed = append(b.f.closed, q)
	}
}
