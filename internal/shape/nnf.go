package shape

// NNF rewrites φ into negation normal form: negation applied only to
// atomic shapes (the first three production lines of the grammar). The
// rewriting preserves the overall syntactic structure and semantics:
//
//	¬(φ ∧ ψ) ≡ ¬φ ∨ ¬ψ            ¬(φ ∨ ψ) ≡ ¬φ ∧ ¬ψ
//	¬≥n+1 E.ψ ≡ ≤n E.ψ            ¬≥0 E.ψ ≡ ⊥
//	¬≤n E.ψ ≡ ≥n+1 E.ψ            ¬∀E.ψ ≡ ≥1 E.¬ψ
//	¬¬φ ≡ φ                        ¬⊤ ≡ ⊥, ¬⊥ ≡ ⊤
//
// NNF also recurses into quantifier bodies, so the result is in NNF at
// every level. hasShape references are left in place; Definition 3.2
// resolves and normalizes them lazily via the schema.
//
// The result is memoized on φ's node: every call, from any goroutine,
// returns the same pointer, and unchanged subtrees are φ's own nodes, so
// NNF(NNF(φ)) is NNF(φ).
func NNF(phi Shape) Shape { return memo(phi, false) }

// NegNNF returns NNF(¬φ), memoized on φ's node like NNF.
func NegNNF(phi Shape) Shape { return memo(phi, true) }

// memo returns the memoized NNF(φ) (neg false) or NNF(¬φ) (neg true),
// computing and publishing it on first ask. Racing first asks compute
// equal forms; the compare-and-swap keeps one, so every caller sees one
// pointer.
func memo(phi Shape, neg bool) Shape {
	n := phi.base()
	if n == nil {
		return nnf(phi, neg) // ⊤ and ⊥ normalize to constants
	}
	slot := &n.nnf
	if neg {
		slot = &n.neg
	}
	if p := slot.Load(); p != nil {
		return *p
	}
	s := nnf(phi, neg)
	slot.CompareAndSwap(nil, &s)
	return *slot.Load()
}

// nnf computes NNF(φ) when neg is false, and NNF(¬φ) when neg is true,
// one level deep: arguments and bodies come from their own memos.
func nnf(phi Shape, neg bool) Shape {
	switch x := phi.(type) {
	case *True:
		if neg {
			return &False{}
		}
	case *False:
		if neg {
			return &True{}
		}
	case *Not:
		return memo(x.X, !neg)
	case *And:
		return junction(phi, x.Xs, neg, AndOf, OrOf)
	case *Or:
		return junction(phi, x.Xs, neg, OrOf, AndOf)
	case *MinCount:
		switch {
		case neg && x.N == 0:
			return &False{} // ¬≥0 E.ψ is unsatisfiable
		case neg:
			return &MaxCount{N: x.N - 1, Path: x.Path, X: NNF(x.X)}
		case NNF(x.X) != x.X:
			return &MinCount{N: x.N, Path: x.Path, X: NNF(x.X)}
		}
	case *MaxCount:
		switch {
		case neg:
			return &MinCount{N: x.N + 1, Path: x.Path, X: NNF(x.X)}
		case NNF(x.X) != x.X:
			return &MaxCount{N: x.N, Path: x.Path, X: NNF(x.X)}
		}
	case *Forall:
		switch {
		case neg:
			return &MinCount{N: 1, Path: x.Path, X: NegNNF(x.X)}
		case NNF(x.X) != x.X:
			return &Forall{Path: x.Path, X: NNF(x.X)}
		}
	default: // atoms
		if neg {
			return &Not{X: phi}
		}
	}
	return phi // already in NNF: identity-preserving, so NNF(NNF(φ)) shares nodes
}

// junction normalizes the arguments xs of φ, an ∧ (join AndOf, dual OrOf)
// or an ∨: under negation De Morgan's dual of the negated arguments,
// otherwise φ itself when no argument changed.
func junction(phi Shape, xs []Shape, neg bool, join, dual func(...Shape) Shape) Shape {
	out, changed := make([]Shape, len(xs)), false
	for i, c := range xs {
		out[i] = memo(c, neg)
		changed = changed || out[i] != c
	}
	switch {
	case neg:
		return dual(out...)
	case changed:
		return join(out...)
	}
	return phi
}
