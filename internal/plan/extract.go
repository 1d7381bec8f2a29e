package plan

import (
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// CollectInto accumulates B(v, G, φ) for the program's root shape into out,
// implementing Table 2 over instructions. The visited state persists across
// calls (matching core.Extractor's shared visited set when accumulating a
// fragment); use ResetVisited to start an isolated per-node unit, as the
// neighborhood cache requires. The triples produced are exactly those of
// core.Extractor.collect for the same shape — the parity suites gate this.
func (b *Bound) CollectInto(v rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	b.collect(v, b.prog.Root, out)
}

// ResetVisited begins a new accumulation unit: previously visited
// (instruction, node) pairs will be re-collected. Costs a generation bump;
// rows are wiped only when the 8-bit generation wraps.
func (b *Bound) ResetVisited() {
	b.Resets++
	b.gen++
	if b.gen == 0 {
		for i := range b.visited {
			clear(b.visited[i])
		}
		b.gen = 1
	}
}

// wit is the witness-list scratch pool, separate from succ/vals because
// Table 2 rows filter path values into a witness list that must survive
// both the trace and the recursion into each witness.
func (b *Bound) witScratch(d int) []rdfgraph.ID { return scratch(&b.wit, d) }

// trace unions graph(paths(E, G, v, targets)) into out for a path slot:
// the plan-level equivalent of core.Extractor.addTrace without attribution
// (plans carry no recorder; the planner falls back to the AST extractor
// when attribution is requested).
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

// collect implements Table 2 for instruction i at focus v. The cases mirror
// core.Extractor.collect exactly.
func (b *Bound) collect(v rdfgraph.ID, i int32, out *rdfgraph.IDTripleSet) {
	r := b.row(b.visited, i, v)
	if r[v] == b.gen {
		return
	}
	r[v] = b.gen

	if !b.Conforms(v, i) {
		return // B(v, G, φ) = ∅ when v does not conform
	}

	in := &b.prog.Instrs[i]
	switch in.Op {
	case OpTrue, OpFalse, OpTest, OpHasValue, OpClosed, OpDisj,
		OpLessThan, OpLessThanEq, OpMoreThan, OpMoreThanEq, OpUniqueLang:
		// Minimal neighborhoods: no triples as evidence (Section 3.1).
		return

	case OpRef:
		b.collect(v, in.Args[0], out)

	case OpAnd, OpOr:
		// Conjunctions collect every conjunct; disjunctions collect every
		// conforming disjunct (collect itself skips non-conforming ones).
		for _, c := range in.Args {
			b.collect(v, c, out)
		}

	case OpMin:
		// ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,ψ) | x ∈ ⟦E⟧G(v), G,x ⊨ ψ }
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		witnesses := b.witScratch(d)
		for _, x := range values {
			if b.Conforms(x, in.Args[0]) {
				witnesses = append(witnesses, x)
			}
		}
		putScratch(&b.wit, d, witnesses)
		b.trace(in.Path, v, witnesses, out)
		for _, x := range witnesses {
			b.collect(x, in.Args[0], out)
		}
		b.depth--

	case OpMax:
		// ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,¬ψ) | x ∈ ⟦E⟧G(v), G,x ⊨ ¬ψ }
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		counterexamples := b.witScratch(d)
		for _, x := range values {
			if !b.Conforms(x, in.Args[0]) {
				counterexamples = append(counterexamples, x)
			}
		}
		putScratch(&b.wit, d, counterexamples)
		b.trace(in.Path, v, counterexamples, out)
		for _, x := range counterexamples {
			b.collect(x, in.Args[1], out)
		}
		b.depth--

	case OpForall:
		// ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,ψ) | x ∈ ⟦E⟧G(v) }
		d := b.depth
		b.depth++
		values := b.pathValues(in.Path, v, d)
		b.trace(in.Path, v, values, out)
		for _, x := range values {
			b.collect(x, in.Args[0], out)
		}
		b.depth--

	case OpEq:
		if in.Path == NoPath {
			// eq(id, p): {(v, p, v)}; conformance guarantees presence.
			if pid := b.preds[i]; pid != rdfgraph.NoID {
				out.Add(rdfgraph.IDTriple{S: v, P: pid, O: v})
			}
			return
		}
		// eq(E, p): ⋃ { graph(paths(E ∪ p, G, v, x)) | x ∈ ⟦E ∪ p⟧G(v) }
		pe := b.pes[in.TracePath]
		pe.TraceInto(v, pe.Eval(v), out)

	case OpNeg:
		if in.Name != (rdf.Term{}) {
			// ¬hasShape(s): Args[0] is NNF(¬def(s)) — collect it.
			b.collect(v, in.Args[0], out)
			return
		}
		b.collectNegatedAtom(v, in.Args[0], out)

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
		witnesses := b.witScratch(d)
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
		common := b.witScratch(d)
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
		clashing := b.witScratch(d)
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
	witnesses := b.witScratch(d)
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
