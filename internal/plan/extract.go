package plan

import (
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// CollectAllInto accumulates ⋃{B(v, G, φ) | v ∈ nodes} for the program's
// root shape into out: Table 2 over instructions, a set of focus nodes at a
// time. Frag(G, S) needs only the union, and a quantifier's targets are
// fixed by its body, not by the focus node, so over an automaton slot it
// traces all its foci with one product search (paths.Evaluator.TraceSetInto)
// and recurses into all their witnesses with one call. The visited state
// persists across calls, like core.Extractor's shared visited set;
// ResetVisited starts an isolated per-node unit, as live's per-focus
// support counts require. The triples are exactly those of
// core.Extractor.collect over the same nodes — the parity suites gate this.
func (b *Bound) CollectAllInto(nodes []rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	b.collect(nodes, b.prog.Root, out)
}

// CollectInto is CollectAllInto of the one-element set {v}.
func (b *Bound) CollectInto(v rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	b.collect([]rdfgraph.ID{v}, b.prog.Root, out) // collect keeps no hold of it: on the stack
}

// ResetVisited begins a new accumulation unit: previously visited
// (instruction, node) pairs will be re-collected. Costs a generation bump;
// rows are wiped only when the 8-bit generation wraps.
func (b *Bound) ResetVisited() {
	b.gen++
	if b.gen == 0 {
		for i := range b.visited {
			clear(b.visited[i])
		}
		b.gen = 1
	}
}

// trace unions graph(paths(E, G, v, targets)) into out for a path slot:
// the plan-level equivalent of core.Extractor.addTrace without attribution
// (plans carry no recorder; core runs the AST extractor when attribution
// is requested).
func (b *Bound) trace(slot int32, v rdfgraph.ID, targets []rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	if len(targets) == 0 {
		return
	}
	if a := b.atomics[slot]; a.ok {
		if a.pred == rdfgraph.NoID {
			return
		}
		for _, t := range targets {
			if a.fwd {
				if b.g.HasIDs(v, a.pred, t) {
					out.Add(rdfgraph.IDTriple{S: v, P: a.pred, O: t})
				}
			} else if b.g.HasIDs(t, a.pred, v) {
				out.Add(rdfgraph.IDTriple{S: t, P: a.pred, O: v})
			}
		}
		return
	}
	b.pes[slot].TraceInto(v, targets, out)
}

// decide settles instruction i at those of nodes one search can answer for
// together, filling the memo row Conforms reads: ≥1 E.ψ over an automaton
// slot holds at exactly the sources the backward pass from ψ's conformers
// among ⟦E⟧G(nodes) comes back to. The rest is left to Conforms.
func (b *Bound) decide(nodes []rdfgraph.ID, i int32) {
	in := &b.prog.Instrs[i]
	switch in.Op {
	case OpAnd, OpOr, OpRef:
		for _, c := range in.Args {
			b.decide(nodes, c)
		}
	case OpMin:
		pe := b.pes[in.Path]
		if in.N != 1 || pe == nil {
			return
		}
		d := b.depth
		b.depth++
		open := scratch(&b.srcs, d)
		for _, v := range nodes {
			if b.row(b.memo, i, v)[v] == 0 {
				open = append(open, v)
			}
		}
		putScratch(&b.srcs, d, open)
		if len(open) > 0 {
			b.Checks += len(open)
			wit := b.witnesses(in, pe.EvalSet(open, scratch(&b.wit, d)), d)
			for j, reached := range pe.TraceSetInto(open, wit, nil) {
				b.memo[i][open[j]] = 2
				if reached {
					b.memo[i][open[j]] = 1
				}
			}
		}
		b.depth--
	}
}

// witnesses cuts vals, the E-values of quantifier in's foci in the depth-d
// wit scratch, down to the nodes its Table 2 row traces to and recurses into,
// a set the body alone fixes: its conformers for ≥n, its non-conformers for
// ≤n, every value for ∀.
func (b *Bound) witnesses(in *Instr, vals []rdfgraph.ID, d int) []rdfgraph.ID {
	if in.Op != OpForall {
		b.decide(vals, in.Args[0])
		kept := vals[:0]
		for _, x := range vals {
			if b.Conforms(x, in.Args[0]) == (in.Op == OpMin) {
				kept = append(kept, x)
			}
		}
		vals = kept
	}
	putScratch(&b.wit, d, vals)
	return vals
}

// collect implements Table 2 for instruction i at the foci among nodes: those
// not yet visited for i that conform to it, since B(v, G, φ) = ∅ when v does
// not. The cases mirror core.Extractor.collect exactly.
func (b *Bound) collect(nodes []rdfgraph.ID, i int32, out *rdfgraph.IDTripleSet) {
	d := b.depth // the depth whose scratch holds foci and their witnesses
	b.depth++
	defer func() { b.depth-- }()
	b.decide(nodes, i)
	foci := scratch(&b.srcs, d)
	for _, v := range nodes {
		if r := b.row(b.visited, i, v); r[v] != b.gen {
			r[v] = b.gen
			if b.Conforms(v, i) {
				foci = append(foci, v)
			}
		}
	}
	putScratch(&b.srcs, d, foci)
	if len(foci) == 0 {
		return
	}
	in := &b.prog.Instrs[i]
	switch in.Op {
	case OpTrue, OpFalse, OpTest, OpHasValue, OpClosed, OpDisj,
		OpLessThan, OpLessThanEq, OpMoreThan, OpMoreThanEq, OpUniqueLang:
		// Minimal neighborhoods: no triples as evidence (Section 3.1).

	case OpRef, OpAnd, OpOr:
		// Conjunctions collect every conjunct; disjunctions collect every
		// conforming disjunct (collect itself skips non-conforming foci).
		for _, c := range in.Args {
			b.collect(foci, c, out)
		}

	case OpMin, OpMax, OpForall:
		// ≥n: ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,ψ)  | x ∈ ⟦E⟧G(v), G,x ⊨ ψ }
		// ≤n: ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,¬ψ) | x ∈ ⟦E⟧G(v), G,x ⊨ ¬ψ }
		// ∀:  ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,ψ)  | x ∈ ⟦E⟧G(v) }
		next := in.Args[0]
		if in.Op == OpMax {
			next = in.Args[1]
		}
		if pe := b.pes[in.Path]; pe != nil {
			// Each focus's witnesses are its values cut with one set, so
			// tracing from all foci to all witnesses adds no path.
			wit := b.witnesses(in, pe.EvalSet(foci, scratch(&b.wit, d)), d)
			pe.TraceSetInto(foci, wit, out)
			b.collect(wit, next, out)
			return
		}
		for _, v := range foci {
			wit := b.witnesses(in, append(scratch(&b.wit, d), b.pathValues(in.Path, v, d)...), d)
			b.trace(in.Path, v, wit, out)
			b.collect(wit, next, out)
		}

	case OpEq:
		for _, v := range foci {
			if in.Path != NoPath {
				// eq(E, p): ⋃ { graph(paths(E ∪ p, G, v, x)) | x ∈ ⟦E ∪ p⟧G(v) }
				pe := b.pes[in.TracePath]
				pe.TraceInto(v, pe.Eval(v), out)
			} else if pid := b.preds[i]; pid != rdfgraph.NoID {
				// eq(id, p): {(v, p, v)}; conformance guarantees presence.
				out.Add(rdfgraph.IDTriple{S: v, P: pid, O: v})
			}
		}

	case OpNeg:
		if in.Name != (rdf.Term{}) {
			// ¬hasShape(s): Args[0] is NNF(¬def(s)) — collect it.
			b.collect(foci, in.Args[0], out)
			return
		}
		for _, v := range foci {
			b.collectNegatedAtom(v, in.Args[0], out)
		}

	default:
		panic("plan: shape not in NNF in collect")
	}
}

// collectNegatedAtom handles Table 2's negated-atom rows; ai indexes the
// atom instruction under the negation. The focus node conforms to ¬atom.
func (b *Bound) collectNegatedAtom(v rdfgraph.ID, ai int32, out *rdfgraph.IDTripleSet) {
	in := &b.prog.Instrs[ai]
	switch in.Op {
	case OpEq:
		pid := b.preds[ai]
		if in.Path == NoPath {
			if pid == rdfgraph.NoID {
				return // no p-triples: nothing to witness
			}
			// ¬eq(id, p): {(v, p, x) ∈ G | x ≠ v}
			d := b.depth
			b.depth++
			for _, o := range b.propValues(ai, v, d) {
				if o != v {
					out.Add(rdfgraph.IDTriple{S: v, P: pid, O: o})
				}
			}
			b.depth--
			return
		}
		// ¬eq(E, p): E-paths to x with (v,p,x) ∉ G, plus p-triples to x
		// outside ⟦E⟧G(v). Both sides are sorted sets, so the set
		// differences are merges.
		d := b.depth
		b.depth++
		pValues := b.propValues(ai, v, d)
		eValues := b.pathValues(in.Path, v, d)
		witnesses := scratch(&b.wit, d)
		for _, x := range eValues {
			if _, inP := sortedContains(pValues, x); !inP {
				witnesses = append(witnesses, x)
			}
		}
		putScratch(&b.wit, d, witnesses)
		b.trace(in.Path, v, witnesses, out)
		for _, o := range pValues {
			if _, inE := sortedContains(eValues, o); !inE {
				out.Add(rdfgraph.IDTriple{S: v, P: pid, O: o})
			}
		}
		b.depth--

	case OpDisj:
		pid := b.preds[ai]
		if pid == rdfgraph.NoID {
			return // ¬disj needs a shared p-value, so p occurs in G
		}
		if in.Path == NoPath {
			// ¬disj(id, p): {(v, p, v)}
			out.Add(rdfgraph.IDTriple{S: v, P: pid, O: v})
			return
		}
		// ¬disj(E, p): E-paths to common values x, plus the (v, p, x) edges.
		d := b.depth
		b.depth++
		pValues := b.propValues(ai, v, d)
		eValues := b.pathValues(in.Path, v, d)
		common := scratch(&b.wit, d)
		for _, x := range eValues {
			if _, inP := sortedContains(pValues, x); inP {
				common = append(common, x)
			}
		}
		putScratch(&b.wit, d, common)
		b.trace(in.Path, v, common, out)
		for _, x := range common {
			out.Add(rdfgraph.IDTriple{S: v, P: pid, O: x})
		}
		b.depth--

	case OpLessThan:
		b.collectNegatedOrder(v, ai, rdf.Less, out)
	case OpLessThanEq:
		b.collectNegatedOrder(v, ai, rdf.LessEq, out)
	case OpMoreThan:
		b.collectNegatedOrder(v, ai, func(bt, yt rdf.Term) bool { return rdf.Less(yt, bt) }, out)
	case OpMoreThanEq:
		b.collectNegatedOrder(v, ai, func(bt, yt rdf.Term) bool { return rdf.LessEq(yt, bt) }, out)

	case OpUniqueLang:
		// ¬uniqueLang(E): E-paths to every x that clashes with some y ≠ x.
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		byLang := make(map[string][]rdfgraph.ID)
		for _, x := range values {
			t := b.g.Term(x)
			if t.IsLiteral() && t.Lang != "" {
				byLang[t.Lang] = append(byLang[t.Lang], x)
			}
		}
		clashing := scratch(&b.wit, d)
		for _, group := range byLang {
			if len(group) > 1 {
				clashing = append(clashing, group...)
			}
		}
		putScratch(&b.wit, d, clashing)
		b.trace(in.Path, v, clashing, out)
		b.depth--

	case OpClosed:
		// ¬closed(P): {(v, p, x) ∈ G | p ∉ P}
		ids := b.allowed[ai]
		b.g.PredicatesFrom(v, func(p, o rdfgraph.ID) {
			if !sortedHas(ids, p) {
				out.Add(rdfgraph.IDTriple{S: v, P: p, O: o})
			}
		})

	case OpTrue, OpFalse, OpTest, OpHasValue:
		// Negated node-level atoms involve no triples: empty neighborhood.
		return

	default:
		panic("plan: negation not in NNF in collect")
	}
}

// collectNegatedOrder handles the four negated order constraints: E-paths
// to x plus p-edges (v,p,y) with ¬cmp(x, y).
func (b *Bound) collectNegatedOrder(v rdfgraph.ID, ai int32, cmp func(bt, yt rdf.Term) bool, out *rdfgraph.IDTripleSet) {
	in := &b.prog.Instrs[ai]
	pid := b.preds[ai]
	if pid == rdfgraph.NoID {
		return // no p-values means no order violation to witness
	}
	d := b.depth
	b.depth++
	pValues := b.propValues(ai, v, d)
	values := b.pathValues(in.Path, v, d)
	witnesses := scratch(&b.wit, d)
	for _, x := range values {
		bt := b.g.Term(x)
		witness := false
		for _, y := range pValues {
			if !cmp(bt, b.g.Term(y)) {
				out.Add(rdfgraph.IDTriple{S: v, P: pid, O: y})
				witness = true
			}
		}
		if witness {
			witnesses = append(witnesses, x)
		}
	}
	putScratch(&b.wit, d, witnesses)
	b.trace(in.Path, v, witnesses, out)
	b.depth--
}

// sortedContains reports membership of x in a sorted slice.
func sortedContains(s []rdfgraph.ID, x rdfgraph.ID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == x
}

func sortedHas(s []rdfgraph.ID, x rdfgraph.ID) bool {
	_, ok := sortedContains(s, x)
	return ok
}
