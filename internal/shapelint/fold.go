package shapelint

import (
	"fmt"
	"sort"
	"strings"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// folder is the constant-folding engine behind the linter: it rewrites an
// NNF shape toward ⊤/⊥, inlining hasShape references (schemas are
// nonrecursive, so inlining terminates) and collapsing contradictory
// conjunctions. Folding is sound but incomplete: a shape folded to ⊥ is
// guaranteed unsatisfiable on every graph, while a shape that does not
// fold may still be unsatisfiable.
//
// Conflicts discovered while folding are reported through the owning
// linter, attributed to the definition currently being folded; probe runs
// fold silently for satisfiability questions asked mid-analysis.
type folder struct {
	l *linter

	// defMemo caches the folded NNF body per definition name, so shared
	// helpers fold (and report) exactly once.
	defMemo map[rdf.Term]shape.Shape
	// folding guards against reference cycles. schema.New rejects cyclic
	// schemas, so this only trips on hand-built Defs that bypassed it; a
	// cyclic reference folds to ⊤, mirroring the evaluator's default.
	folding map[rdf.Term]bool
	// current is the stack of definition names being folded; emissions
	// attribute to the top.
	current []rdf.Term
	// quiet suppresses emission during probes.
	quiet int
}

func newFolder(l *linter) *folder {
	return &folder{
		l:       l,
		defMemo: make(map[rdf.Term]shape.Shape),
		folding: make(map[rdf.Term]bool),
	}
}

// foldDef resolves and folds the named definition's shape (NNF first),
// memoized. The second result is false for undefined names.
func (f *folder) foldDef(name rdf.Term) (shape.Shape, bool) {
	if s, ok := f.defMemo[name]; ok {
		return s, true
	}
	if f.l.h == nil {
		return nil, false
	}
	def, ok := f.l.h.Def(name)
	if !ok {
		return nil, false
	}
	if f.folding[name] {
		return shape.TrueShape(), true
	}
	f.folding[name] = true
	f.current = append(f.current, name)
	folded := f.fold(shape.NNF(def))
	f.current = f.current[:len(f.current)-1]
	delete(f.folding, name)
	f.defMemo[name] = folded
	return folded, true
}

// probe folds phi without emitting diagnostics, for satisfiability
// questions asked from inside conflict checks.
func (f *folder) probe(phi shape.Shape) shape.Shape {
	f.quiet++
	defer func() { f.quiet-- }()
	return f.fold(phi)
}

// emit reports a finding against the definition currently being folded.
func (f *folder) emit(code string, sev Severity, detail, format string, args ...any) {
	if f.quiet > 0 || len(f.current) == 0 {
		return
	}
	f.l.emit(f.current[len(f.current)-1], code, sev, detail, fmt.Sprintf(format, args...))
}

// Folder exposes the linter's constant-folding engine to other analyses
// (internal/contain uses it as a satisfiability/validity probe). It folds
// quietly — no diagnostics are emitted — and memoizes results across
// calls per shape.ID, so repeated probes against the same schema are
// cheap. A Folder is not safe for concurrent use.
type Folder struct {
	f      *folder
	folded map[uint32]shape.Shape
}

// NewFolder builds a quiet folder over h. A nil schema is allowed: all
// hasShape references then fold to ⊤, mirroring the evaluator's default
// for undefined names.
func NewFolder(h *schema.Schema) *Folder {
	return &Folder{f: newFolder(&linter{h: h}), folded: make(map[uint32]shape.Shape)}
}

// Fold rewrites phi toward a constant. The result is semantically
// equivalent to phi on every graph: folding to ⊥ proves phi
// unsatisfiable, folding to ⊤ proves it valid. phi need not be in NNF.
// Folding depends on phi's structure and the schema only, so shapes with
// one shape.ID share one result.
func (f *Folder) Fold(phi shape.Shape) shape.Shape {
	id := shape.ID(phi)
	folded, ok := f.folded[id]
	if !ok {
		folded = f.f.probe(shape.NNF(phi))
		f.folded[id] = folded
	}
	return folded
}

// Fold is a one-shot convenience for NewFolder(h).Fold(phi).
func Fold(h *schema.Schema, phi shape.Shape) shape.Shape {
	return NewFolder(h).Fold(phi)
}

// IsTrue reports whether s is the literal ⊤ constant, as produced by
// folding.
func IsTrue(s shape.Shape) bool { return isTrue(s) }

// IsFalse reports whether s is the literal ⊥ constant, as produced by
// folding.
func IsFalse(s shape.Shape) bool { return isFalse(s) }

// TestsConflict reports whether two node tests are jointly
// unsatisfiable: no single node can pass both.
func TestsConflict(a, b shape.NodeTest) bool {
	_, bad := testsConflict(a, b)
	return bad
}

func isTrue(s shape.Shape) bool  { _, ok := s.(*shape.True); return ok }
func isFalse(s shape.Shape) bool { _, ok := s.(*shape.False); return ok }

func pathKey(e paths.Expr) string {
	if e == nil {
		return "id"
	}
	return e.String()
}

// fold rewrites phi (which must be in NNF) toward a constant. The result
// is semantically equivalent to phi on every graph and schema.
func (f *folder) fold(phi shape.Shape) shape.Shape {
	switch x := phi.(type) {
	case *shape.True, *shape.False:
		return phi
	case *shape.HasShape:
		if folded, ok := f.foldDef(x.Name); ok {
			return folded
		}
		// Undefined references behave as ⊤ (real-SHACL behavior); the
		// reference walk reports SL009 separately.
		return shape.TrueShape()
	case *shape.Not:
		inner := f.fold(x.X)
		switch {
		case isTrue(inner):
			return shape.FalseShape()
		case isFalse(inner):
			return shape.TrueShape()
		}
		if n, ok := inner.(*shape.Not); ok {
			return n.X
		}
		return &shape.Not{X: inner}
	case *shape.And:
		kids := make([]shape.Shape, 0, len(x.Xs))
		for _, c := range x.Xs {
			folded := f.fold(c)
			if isFalse(folded) {
				return shape.FalseShape()
			}
			kids = append(kids, folded)
		}
		flat := shape.AndOf(kids...) // flattens inlined conjunctions, drops ⊤
		and, ok := flat.(*shape.And)
		if !ok {
			return flat
		}
		if f.conjunctionConflicts(and.Xs) {
			return shape.FalseShape()
		}
		return and
	case *shape.Or:
		var kids []shape.Shape
		seen := make(map[uint32]bool)
		for _, c := range x.Xs {
			folded := f.fold(c)
			if isTrue(folded) {
				f.emit(CodeShadowed, Warning, c.String(),
					"disjunct is trivially true, making the whole disjunction vacuous")
				return shape.TrueShape()
			}
			if isFalse(folded) {
				f.emit(CodeShadowed, Warning, c.String(),
					"disjunct is unsatisfiable and can never be selected")
				continue
			}
			id := shape.ID(folded)
			if seen[id] {
				f.emit(CodeShadowed, Warning, folded.String(), "duplicate disjunct is shadowed by an earlier alternative")
				continue
			}
			seen[id] = true
			kids = append(kids, folded)
		}
		return shape.OrOf(kids...) // OrOf() of nothing is ⊥
	case *shape.MinCount:
		if x.N <= 0 {
			return shape.TrueShape() // ≥0 E.φ holds everywhere
		}
		body := f.fold(x.X)
		if isFalse(body) {
			return shape.FalseShape() // ≥n E.⊥ with n ≥ 1 is unsatisfiable
		}
		return &shape.MinCount{N: x.N, Path: x.Path, X: body}
	case *shape.MaxCount:
		body := f.fold(x.X)
		if isFalse(body) {
			return shape.TrueShape() // no successor conforms to ⊥
		}
		return &shape.MaxCount{N: x.N, Path: x.Path, X: body}
	case *shape.Forall:
		body := f.fold(x.X)
		if isTrue(body) {
			return shape.TrueShape()
		}
		// ∀E.⊥ is NOT ⊥: it holds on nodes with no E-successors.
		return &shape.Forall{Path: x.Path, X: body}
	default:
		// Atoms: test, hasValue, eq, disj, closed, pair orders, uniqueLang.
		return phi
	}
}

// conjunctionConflicts inspects the (folded, flattened) conjuncts of an
// And for contradictions, emitting a positioned diagnostic per conflict.
// It returns true when a hard conflict makes the conjunction ⊥.
func (f *folder) conjunctionConflicts(xs []shape.Shape) bool {
	hard := false
	report := func(code string, sev Severity, a, b shape.Shape, format string, args ...any) {
		f.emit(code, sev, a.String()+" ∧ "+b.String(), format, args...)
		if sev == Error {
			hard = true
		}
	}

	// Sorted buckets of the atom classes the checks below pair up.
	var (
		tests    []*shape.Test
		values   []*shape.HasValue
		mins     []*shape.MinCount
		maxs     []*shape.MaxCount
		foralls  []*shape.Forall
		closeds  []*shape.Closed
		eqs      []*shape.Eq
		disjs    []*shape.Disj
		negAtoms []*shape.Not
	)
	byID := make(map[uint32]bool, len(xs))
	for _, c := range xs {
		byID[shape.ID(c)] = true
		switch a := c.(type) {
		case *shape.Test:
			tests = append(tests, a)
		case *shape.HasValue:
			values = append(values, a)
		case *shape.MinCount:
			mins = append(mins, a)
		case *shape.MaxCount:
			maxs = append(maxs, a)
		case *shape.Forall:
			foralls = append(foralls, a)
		case *shape.Closed:
			closeds = append(closeds, a)
		case *shape.Eq:
			eqs = append(eqs, a)
		case *shape.Disj:
			disjs = append(disjs, a)
		case *shape.Not:
			negAtoms = append(negAtoms, a)
		}
	}

	// φ ∧ ¬φ.
	for _, n := range negAtoms {
		if byID[shape.ID(n.X)] {
			report(CodeContradiction, Error, n.X, n,
				"conjunction contains a shape and its negation")
		}
	}

	// Contradictory node tests.
	for i, t1 := range tests {
		for _, t2 := range tests[i+1:] {
			if why, bad := testsConflict(t1.T, t2.T); bad {
				report(CodeContradiction, Error, t1, t2,
					"contradictory node tests: %s", why)
			}
		}
	}

	// hasValue pins the focus node to a constant; everything else in the
	// conjunction must accept that constant.
	for i, v1 := range values {
		for _, v2 := range values[i+1:] {
			if v1.C != v2.C {
				report(CodeContradiction, Error, v1, v2,
					"focus node cannot equal two distinct constants")
			}
		}
	}
	for _, v := range values {
		for _, t := range tests {
			if !t.T.Holds(v.C) {
				report(CodeContradiction, Error, v, t,
					"constant %s fails node test %s", v.C, t.T)
			}
		}
		for _, n := range negAtoms {
			if t, ok := n.X.(*shape.Test); ok && t.T.Holds(v.C) {
				report(CodeContradiction, Error, v, n,
					"constant %s satisfies the negated node test %s", v.C, t.T)
			}
		}
	}

	// Cardinality contradictions on a shared path.
	for _, mn := range mins {
		for _, mx := range maxs {
			if pathKey(mn.Path) != pathKey(mx.Path) {
				continue
			}
			if mn.N > mx.N && (isTrue(mx.X) || shape.ID(mn.X) == shape.ID(mx.X)) {
				report(CodeCardinality, Error, mn, mx,
					"at least %d but at most %d values on path %s", mn.N, mx.N, pathKey(mn.Path))
			}
		}
		// ≥n E.φ with n ≥ 1 against ∀E.ψ where φ ∧ ψ is unsatisfiable:
		// the required successors would have to violate the universal.
		for _, fa := range foralls {
			if mn.N >= 1 && pathKey(mn.Path) == pathKey(fa.Path) &&
				isFalse(f.probe(shape.AndOf(mn.X, fa.X))) {
				report(CodeCardinality, Error, mn, fa,
					"required values on path %s cannot satisfy the universal constraint", pathKey(mn.Path))
			}
		}
	}

	// Closed shapes against required properties: when every accepting walk
	// of a ≥n (n ≥ 1) path must begin with a property outside the allowed
	// set, a closed focus node has no such successors.
	for _, cl := range closeds {
		allowed := make(map[string]bool, len(cl.Allowed))
		for _, p := range cl.Allowed {
			allowed[p] = true
		}
		for _, mn := range mins {
			if mn.N < 1 || mn.Path == nil || paths.CanBeEmpty(mn.Path) {
				continue
			}
			first, ok := firstForwardProps(mn.Path)
			if !ok || len(first) == 0 {
				continue
			}
			blocked := true
			var outside []string
			for p := range first {
				if allowed[p] {
					blocked = false
					break
				}
				outside = append(outside, "<"+p+">")
			}
			if blocked {
				sort.Strings(outside)
				report(CodeClosed, Error, mn, cl,
					"closed shape forbids %s, but the path requires at least %d value(s) through it",
					strings.Join(outside, ", "), mn.N)
			}
		}
	}

	// eq/disj on the same (path, property) pair. With F = id the value set
	// {focus} is never empty, so the pair is outright unsatisfiable; with a
	// real path both constraints hold only when both value sets are empty.
	for _, e := range eqs {
		for _, d := range disjs {
			if pathKey(e.Path) != pathKey(d.Path) || e.P != d.P {
				continue
			}
			if e.Path == nil {
				report(CodeContradiction, Error, e, d,
					"eq and disj on the focus node itself and property <%s> cannot both hold", e.P)
			} else {
				report(CodeContradiction, Warning, e, d,
					"eq and disj on the same path and property <%s> only hold when both value sets are empty", e.P)
			}
		}
	}

	return hard
}

// firstForwardProps computes the set of properties a non-empty accepting
// walk of e can start with, when that first step is guaranteed to be a
// forward edge out of the focus node. ok is false when the first step can
// be an inverse edge (closedness does not constrain inbound edges) or
// cannot be bounded.
func firstForwardProps(e paths.Expr) (map[string]struct{}, bool) {
	switch x := e.(type) {
	case paths.Prop:
		return map[string]struct{}{x.IRI: {}}, true
	case paths.Inverse:
		return nil, false
	case paths.Seq:
		left, ok := firstForwardProps(x.Left)
		if !ok {
			return nil, false
		}
		if paths.CanBeEmpty(x.Left) {
			right, ok := firstForwardProps(x.Right)
			if !ok {
				return nil, false
			}
			return union(left, right), true
		}
		return left, true
	case paths.Alt:
		left, ok := firstForwardProps(x.Left)
		if !ok {
			return nil, false
		}
		right, ok := firstForwardProps(x.Right)
		if !ok {
			return nil, false
		}
		return union(left, right), true
	case paths.Star:
		return firstForwardProps(x.X)
	case paths.ZeroOrOne:
		return firstForwardProps(x.X)
	}
	return nil, false
}

func union(a, b map[string]struct{}) map[string]struct{} {
	out := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		out[k] = struct{}{}
	}
	for k := range b {
		out[k] = struct{}{}
	}
	return out
}

// kind requirement bitmask for node tests: which of {IRI, blank, literal}
// a test can possibly accept.
type kindMask uint8

const (
	maskIRI kindMask = 1 << iota
	maskBlank
	maskLiteral
	maskAny = maskIRI | maskBlank | maskLiteral
)

func testKinds(t shape.NodeTest) kindMask {
	switch x := t.(type) {
	case shape.IsIRI:
		return maskIRI
	case shape.IsBlank:
		return maskBlank
	case shape.IsLiteral:
		return maskLiteral
	case shape.Datatype, shape.HasLang:
		return maskLiteral
	case shape.MinExclusive, shape.MaxExclusive, shape.MinInclusive, shape.MaxInclusive:
		// Value-range tests compare under the literal order; non-literals
		// are incomparable and always fail.
		return maskLiteral
	case shape.MinLength, shape.MaxLength, *shape.Pattern:
		// Lexical-form tests hold for IRIs and literals, never blanks.
		return maskIRI | maskLiteral
	case shape.AnyOf:
		var m kindMask
		for _, sub := range x.Tests {
			m |= testKinds(sub)
		}
		return m
	}
	return maskAny
}

// testsConflict reports whether two node tests are jointly unsatisfiable,
// with a human-readable reason.
func testsConflict(a, b shape.NodeTest) (string, bool) {
	if testKinds(a)&testKinds(b) == 0 {
		return fmt.Sprintf("%s and %s accept disjoint node kinds", a, b), true
	}
	// Order-insensitive pairwise checks.
	if why, bad := testPairConflict(a, b); bad {
		return why, bad
	}
	return testPairConflict(b, a)
}

func testPairConflict(a, b shape.NodeTest) (string, bool) {
	switch x := a.(type) {
	case shape.Datatype:
		switch y := b.(type) {
		case shape.Datatype:
			if x.IRI != y.IRI {
				return fmt.Sprintf("a literal has one datatype, not both <%s> and <%s>", x.IRI, y.IRI), true
			}
		case shape.HasLang:
			if x.IRI != rdf.RDFLangString {
				return fmt.Sprintf("language-tagged literals have datatype rdf:langString, not <%s>", x.IRI), true
			}
		}
	case shape.HasLang:
		if y, ok := b.(shape.HasLang); ok && !strings.EqualFold(x.Tag, y.Tag) {
			return fmt.Sprintf("a literal carries one language tag, not both %q and %q", x.Tag, y.Tag), true
		}
	case shape.MinLength:
		if y, ok := b.(shape.MaxLength); ok && x.N > y.N {
			return fmt.Sprintf("minLength %d exceeds maxLength %d", x.N, y.N), true
		}
	case shape.MinExclusive:
		switch y := b.(type) {
		case shape.MaxExclusive:
			if rdf.LessEq(y.Bound, x.Bound) {
				return fmt.Sprintf("empty open interval (%s, %s)", x.Bound, y.Bound), true
			}
		case shape.MaxInclusive:
			if rdf.LessEq(y.Bound, x.Bound) {
				return fmt.Sprintf("empty interval (%s, %s]", x.Bound, y.Bound), true
			}
		}
	case shape.MinInclusive:
		switch y := b.(type) {
		case shape.MaxExclusive:
			if rdf.LessEq(y.Bound, x.Bound) {
				return fmt.Sprintf("empty interval [%s, %s)", x.Bound, y.Bound), true
			}
		case shape.MaxInclusive:
			if rdf.Less(y.Bound, x.Bound) {
				return fmt.Sprintf("empty interval [%s, %s]", x.Bound, y.Bound), true
			}
		}
	}
	return "", false
}
