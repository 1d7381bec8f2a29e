package plan

import (
	"slices"

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
// pages are wiped only when the 8-bit generation wraps.
func (b *Bound) ResetVisited() {
	b.gen++
	if b.gen == 0 {
		for _, dir := range b.visited {
			for _, pg := range dir {
				if pg != nil {
					*pg = page{}
				}
			}
		}
		b.gen = 1
	}
}

// trace unions graph(paths(E, G, v, targets)) into out for a path slot:
// the plan-level equivalent of core.Extractor.addTrace without attribution
// (plans carry no recorder; core runs the AST extractor when attribution
// is requested). Every target must be in ⟦E⟧G(v), as every caller's are:
// they are filtered out of the values themselves, so an atomic slot's
// trace is the edge to each target, added without a lookup.
func (b *Bound) trace(slot int32, v rdfgraph.ID, targets []rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	if a := b.atomics[slot]; a.ok {
		for _, t := range targets {
			out.Add(a.edge(v, t))
		}
		return
	}
	if len(targets) > 0 {
		b.pes[slot].TraceInto(v, targets, out)
	}
}

// edge is the triple an atomic slot's path from v to its value x is.
func (a atomicPath) edge(v, x rdfgraph.ID) rdfgraph.IDTriple {
	if a.fwd {
		return rdfgraph.IDTriple{S: v, P: a.pred, O: x}
	}
	return rdfgraph.IDTriple{S: x, P: a.pred, O: v}
}

// decide settles instruction i at those of nodes a set pass can answer for
// together, filling the memo row Conforms reads, and records what it found
// for collect. A quantifier over an atomic slot is decideAtomic's; ≥1 E.ψ
// over an automaton slot holds at exactly the sources the backward pass
// from ψ's conformers among ⟦E⟧G(nodes) comes back to. The rest is left to
// Conforms.
func (b *Bound) decide(nodes []rdfgraph.ID, i int32) {
	in := &b.prog.Instrs[i]
	if !in.sets {
		return
	}
	switch in.Op {
	case OpAnd, OpOr, OpRef:
		// Each argument is decided where i is still open after the ones
		// before it, as eval's short circuit asks it. Where i is decided,
		// collect asks its arguments only at the nodes it holds at, and
		// decides them itself.
		d := b.depth
		b.depth++
		open := b.open(nodes, i, d)
		for k, c := range in.Args {
			if len(open) == 0 {
				break
			}
			b.decide(open, c)
			if k+1 < len(in.Args) {
				kept := open[:0]
				for _, v := range open {
					if b.Conforms(v, c) == (in.Op == OpAnd) {
						kept = append(kept, v)
					}
				}
				open = kept
			}
		}
		b.depth--
	case OpMin, OpMax, OpForall:
		pe := b.pes[in.Path]
		if pe == nil {
			b.decideAtomic(nodes, i)
			return
		}
		if in.Op != OpMin || in.N != 1 {
			return // counted per source, by eval
		}
		d := b.depth
		b.depth++
		if open := b.open(nodes, i, d); len(open) > 0 {
			wit := b.witnesses(in, pe.EvalSet(open, scratch(&b.wit, d)), d)
			for j, reached := range pe.TraceSetInto(open, wit, nil) {
				b.setMemo(i, open[j], reached)
			}
			dc := &b.decided[i]
			dc.srcs, dc.wit = append(dc.srcs[:0], open...), append(dc.wit[:0], wit...)
		}
		b.depth--
	}
}

// open returns those of nodes at which i's memo row is unknown, in the
// depth-d srcs scratch.
func (b *Bound) open(nodes []rdfgraph.ID, i int32, d int) []rdfgraph.ID {
	open := slices.Grow(scratch(&b.srcs, d), len(nodes))
	for _, v := range nodes {
		if b.cell(b.memo, i, v) == 0 {
			open = append(open, v)
		}
	}
	putScratch(&b.srcs, d, open)
	return open
}

// undecided reports whether i's memo row is unknown at one of nodes.
func (b *Bound) undecided(nodes []rdfgraph.ID, i int32) bool {
	for _, v := range nodes {
		if b.cell(b.memo, i, v) == 0 {
			return true
		}
	}
	return false
}

// decideAtomic settles quantifier i over an atomic slot at the undecided
// among nodes: it scans each one's index row once, decides the body once
// over the distinct values, and counts each verdict off its own values. It
// records the conforming foci in order with their witnesses — the values
// collect traces to and recurses into: the body's conformers for ≥n, its
// non-conformers for ≤n, every value for ∀. A call that finds every node
// decided keeps the last record.
func (b *Bound) decideAtomic(nodes []rdfgraph.ID, i int32) {
	if !b.undecided(nodes, i) {
		return
	}
	in := &b.prog.Instrs[i]
	a, body, dc := b.atomics[in.Path], in.Args[0], &b.decided[i]
	// One growth to the bound, not a doubling series from empty.
	srcs, vals, ends := slices.Grow(dc.srcs[:0], len(nodes)), dc.wit[:0], slices.Grow(dc.ends[:0], len(nodes))
	for _, v := range nodes {
		if b.cell(b.memo, i, v) != 0 {
			continue
		}
		vals = b.appendRow(vals, a, v)
		srcs, ends = append(srcs, v), append(ends, int32(len(vals)))
	}
	d := b.depth
	b.depth++
	defer func() { b.depth-- }()
	if b.prog.Instrs[body].sets {
		distinct := append(scratch(&b.wit, d), vals...)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		putScratch(&b.wit, d, distinct)
		b.decide(distinct, body)
	}
	// Compact in place: a focus's witnesses and record entry are written at
	// or before where they were read.
	kept, keptEnds, w, lo := srcs[:0], ends[:0], 0, int32(0)
	for k, v := range srcs {
		hi, start, count := ends[k], w, 0
		for _, x := range vals[lo:hi] {
			ok := b.bodyHolds(in, x)
			if ok {
				count++
			}
			if in.Op == OpForall || ok == (in.Op == OpMin) {
				vals[w] = x
				w++
			}
		}
		if holds(in, count, int(hi-lo)) {
			b.setMemo(i, v, true)
			kept, keptEnds = append(kept, v), append(keptEnds, int32(w))
		} else {
			b.setMemo(i, v, false)
			w = start
		}
		lo = hi
	}
	dc.srcs, dc.wit, dc.ends = kept, vals[:w], keptEnds
}

// bodyHolds reports whether value x conforms to quantifier in's body,
// through hasShape to what it names. ⊤ and hasValue are read off the
// instruction rather than taking a memo page for every value; a node test
// is memoized, since values recur across foci and a test can parse.
func (b *Bound) bodyHolds(in *Instr, x rdfgraph.ID) bool {
	c := in.Args[0]
	for b.prog.Instrs[c].Op == OpRef {
		c = b.prog.Instrs[c].Args[0]
	}
	switch b.prog.Instrs[c].Op {
	case OpTrue:
		return true
	case OpHasValue:
		return b.consts[c] != rdfgraph.NoID && x == b.consts[c]
	}
	return b.Conforms(x, c)
}

// holds is quantifier in's verdict at a focus count of whose n values
// conform to its body.
func holds(in *Instr, count, n int) bool {
	switch in.Op {
	case OpMin:
		return count >= in.N
	case OpMax:
		return count <= in.N
	}
	return count == n
}

// decision is what decide last found for a quantifier: the sources it
// decided and the witnesses among their E-values. The ≥1 search over an
// automaton slot records every source it searched from and one witness set
// for them all; decideAtomic records the conforming sources, and ends[k]
// ends srcs[k]'s witnesses in wit.
type decision struct {
	srcs, wit []rdfgraph.ID
	ends      []int32
}

// decidedFor reports whether automaton instruction i's last decision
// answers for foci: they are a subsequence of its sources, and every other
// source does not conform. Such a source has no E-path to a witness, so its
// witnesses are those of foci, and so is its trace.
func (b *Bound) decidedFor(i int32, foci []rdfgraph.ID) bool {
	j := 0
	for _, v := range b.decided[i].srcs {
		if j < len(foci) && foci[j] == v {
			j++
		} else if b.cell(b.memo, i, v) != 2 {
			return false
		}
	}
	return j == len(foci)
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
			if b.bodyHolds(in, x) == (in.Op == OpMin) {
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
// not. It returns at once where i emits nothing. The cases mirror
// core.Extractor.collect exactly.
func (b *Bound) collect(nodes []rdfgraph.ID, i int32, out *rdfgraph.IDTripleSet) {
	in := &b.prog.Instrs[i]
	if !in.Emits {
		return
	}
	d := b.depth // the depth whose scratch holds foci and their witnesses
	b.depth++
	defer func() { b.depth-- }()
	b.decide(nodes, i)
	foci := slices.Grow(scratch(&b.srcs, d), len(nodes))
	for _, v := range nodes {
		if c := b.touch(b.visited, i, v); *c != b.gen {
			*c = b.gen
			if b.Conforms(v, i) {
				foci = append(foci, v)
			}
		}
	}
	putScratch(&b.srcs, d, foci)
	if len(foci) == 0 {
		return
	}
	switch in.Op {
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
		var wit []rdfgraph.ID
		if pe := b.pes[in.Path]; pe != nil {
			// Each focus's witnesses are its values cut with one set, so
			// tracing from all foci to all witnesses adds no path. Where
			// decide already searched for them, its trace is read back.
			if dc := &b.decided[i]; b.decidedFor(i, foci) {
				wit = append(scratch(&b.wit, d), dc.wit...)
				putScratch(&b.wit, d, wit)
				pe.TraceSetInto(dc.srcs, wit, out)
			} else {
				wit = b.witnesses(in, pe.EvalSet(foci, scratch(&b.wit, d)), d)
				pe.TraceSetInto(foci, wit, out)
			}
		} else {
			wit = b.collectAtomic(foci, i, d, out)
		}
		b.collect(wit, next, out)

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

// collectAtomic adds the edge from each focus of quantifier i, over an
// atomic slot, to each of its witnesses, read off decideAtomic's record
// where it holds the focus and found by one row scan where it does not.
// It returns the union of the witnesses, sorted, in the depth-d wit
// scratch — empty where the body emits nothing, since collect would not
// descend into it.
func (b *Bound) collectAtomic(foci []rdfgraph.ID, i int32, d int, out *rdfgraph.IDTripleSet) []rdfgraph.ID {
	in := &b.prog.Instrs[i]
	a, dc := b.atomics[in.Path], &b.decided[i]
	next := in.Args[0]
	if in.Op == OpMax {
		next = in.Args[1]
	}
	union := b.prog.Instrs[next].Emits
	wit := scratch(&b.wit, d)
	j := 0
	for _, v := range foci {
		// Both lists follow the order of the nodes decide and collect were
		// handed, sorted wherever a focus set is.
		for j < len(dc.srcs) && dc.srcs[j] < v {
			j++
		}
		var xs []rdfgraph.ID
		if j < len(dc.srcs) && dc.srcs[j] == v {
			lo := int32(0)
			if j > 0 {
				lo = dc.ends[j-1]
			}
			xs = dc.wit[lo:dc.ends[j]]
		} else {
			xs = b.pathValues(in.Path, v, d)
			kept := xs[:0]
			for _, x := range xs {
				if in.Op == OpForall || b.bodyHolds(in, x) == (in.Op == OpMin) {
					kept = append(kept, x)
				}
			}
			xs = kept
		}
		for _, x := range xs {
			out.Add(a.edge(v, x))
		}
		if union {
			wit = append(wit, xs...)
		}
	}
	slices.Sort(wit)
	wit = slices.Compact(wit)
	putScratch(&b.wit, d, wit)
	return wit
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

	default:
		// Negated node-level atoms do not emit: collect never gets here.
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
