// Package shape implements the formal SHACL shape algebra of the paper
// (Section 2): the shape grammar, node tests Ω, negation normal form, and
// the conformance relation H, G, a ⊨ φ of Table 1.
//
// Shapes are pointers and immutable after construction. A node's identity
// for analyses is structural, not its pointer: ID(φ) is equal for two
// shapes exactly when they render equally, and NNF(φ) and NegNNF(φ) are
// memoized on the node itself (id.go, nnf.go), so every package that asks
// "same shape?" or "normal form?" gets one answer.
package shape

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
)

// Shape is a shape expression φ from the grammar
//
//	φ := ⊤ | ⊥ | hasShape(s) | test(t) | hasValue(c)
//	   | eq(F, p) | disj(F, p) | closed(P)
//	   | lessThan(E, p) | lessThanEq(E, p) | uniqueLang(E)
//	   | ¬φ | φ ∧ φ | φ ∨ φ
//	   | ≥n E.φ | ≤n E.φ | ∀E.φ
type Shape interface {
	fmt.Stringer
	// base returns the node's memo slots; nil for ⊤ and ⊥, whose identity
	// and normal forms are constants.
	base() *node
}

// node holds what is derived from a shape node alone, filled on first ask
// and shared by every goroutine: its structural identity and its two
// negation normal forms. Each shape type but ⊤ and ⊥ embeds one.
type node struct {
	id       atomic.Uint32
	nnf, neg atomic.Pointer[Shape]
}

func (n *node) base() *node { return n }

// True is ⊤, satisfied by every node.
type True struct{}

// False is ⊥, satisfied by no node.
type False struct{}

// HasShape is hasShape(s): the focus node conforms to the shape named s in
// the schema. An undefined name behaves as ⊤ (real-SHACL behavior).
type HasShape struct {
	node
	Name rdf.Term
}

// Test is test(t) for a node test t ∈ Ω.
type Test struct {
	node
	T NodeTest
}

// HasValue is hasValue(c): the focus node equals the constant c.
type HasValue struct {
	node
	C rdf.Term
}

// Eq is eq(F, p). Path nil encodes F = id (the focus node itself).
type Eq struct {
	node
	Path paths.Expr // nil means id
	P    string     // property IRI
}

// Disj is disj(F, p). Path nil encodes F = id.
type Disj struct {
	node
	Path paths.Expr // nil means id
	P    string
}

// Closed is closed(P): every property of the focus node is in Allowed.
type Closed struct {
	node
	Allowed []string // sorted property IRIs
}

// LessThan is lessThan(E, p): b < c for all E-values b and p-values c.
type LessThan struct {
	node
	Path paths.Expr
	P    string
}

// LessThanEq is lessThanEq(E, p).
type LessThanEq struct {
	node
	Path paths.Expr
	P    string
}

// UniqueLang is uniqueLang(E): no two distinct E-values share a language tag.
type UniqueLang struct {
	node
	Path paths.Expr
}

// MoreThan is moreThan(E, p): c < b for all E-values b and p-values c.
// SHACL itself lacks this constraint; the paper's Remark 2.3 notes the
// treatment extends to it directly, and this implementation does so.
type MoreThan struct {
	node
	Path paths.Expr
	P    string
}

// MoreThanEq is moreThanEq(E, p): c ≤ b for all E-values b and p-values c.
type MoreThanEq struct {
	node
	Path paths.Expr
	P    string
}

// Not is ¬φ.
type Not struct {
	node
	X Shape
}

// And is a conjunction of one or more shapes.
type And struct {
	node
	Xs []Shape
}

// Or is a disjunction of one or more shapes.
type Or struct {
	node
	Xs []Shape
}

// MinCount is ≥n E.φ: at least n E-successors conform to φ.
type MinCount struct {
	node
	N    int
	Path paths.Expr
	X    Shape
}

// MaxCount is ≤n E.φ: at most n E-successors conform to φ.
type MaxCount struct {
	node
	N    int
	Path paths.Expr
	X    Shape
}

// Forall is ∀E.φ: every E-successor conforms to φ.
type Forall struct {
	node
	Path paths.Expr
	X    Shape
}

func (*True) base() *node  { return nil }
func (*False) base() *node { return nil }

// Constructor helpers. AndOf and OrOf flatten nested conjunctions and
// collapse singletons so that shapes print compactly.

// TrueShape returns ⊤.
func TrueShape() Shape { return &True{} }

// FalseShape returns ⊥.
func FalseShape() Shape { return &False{} }

// Ref returns hasShape(name).
func Ref(name rdf.Term) Shape { return &HasShape{Name: name} }

// NodeTestShape returns test(t).
func NodeTestShape(t NodeTest) Shape { return &Test{T: t} }

// Value returns hasValue(c).
func Value(c rdf.Term) Shape { return &HasValue{C: c} }

// EqPath returns eq(E, p).
func EqPath(e paths.Expr, p string) Shape { return &Eq{Path: e, P: p} }

// EqID returns eq(id, p).
func EqID(p string) Shape { return &Eq{P: p} }

// DisjPath returns disj(E, p).
func DisjPath(e paths.Expr, p string) Shape { return &Disj{Path: e, P: p} }

// DisjID returns disj(id, p).
func DisjID(p string) Shape { return &Disj{P: p} }

// ClosedShape returns closed(P) for the given allowed property IRIs.
func ClosedShape(allowed ...string) Shape {
	sorted := append([]string(nil), allowed...)
	sort.Strings(sorted)
	return &Closed{Allowed: sorted}
}

// Less returns lessThan(E, p).
func Less(e paths.Expr, p string) Shape { return &LessThan{Path: e, P: p} }

// LessEq returns lessThanEq(E, p).
func LessEq(e paths.Expr, p string) Shape { return &LessThanEq{Path: e, P: p} }

// UniqueLangShape returns uniqueLang(E).
func UniqueLangShape(e paths.Expr) Shape { return &UniqueLang{Path: e} }

// More returns moreThan(E, p).
func More(e paths.Expr, p string) Shape { return &MoreThan{Path: e, P: p} }

// MoreEq returns moreThanEq(E, p).
func MoreEq(e paths.Expr, p string) Shape { return &MoreThanEq{Path: e, P: p} }

// Neg returns ¬φ.
func Neg(x Shape) Shape { return &Not{X: x} }

// AndOf returns the conjunction of the given shapes, flattening nested
// conjunctions. AndOf() is ⊤.
func AndOf(xs ...Shape) Shape {
	flat := flatten(xs, true)
	switch len(flat) {
	case 0:
		return &True{}
	case 1:
		return flat[0]
	default:
		return &And{Xs: flat}
	}
}

// OrOf returns the disjunction of the given shapes, flattening nested
// disjunctions. OrOf() is ⊥.
func OrOf(xs ...Shape) Shape {
	flat := flatten(xs, false)
	switch len(flat) {
	case 0:
		return &False{}
	case 1:
		return flat[0]
	default:
		return &Or{Xs: flat}
	}
}

func flatten(xs []Shape, conj bool) []Shape {
	var out []Shape
	for _, x := range xs {
		if x == nil {
			continue
		}
		if conj {
			if t, ok := x.(*True); ok && t != nil {
				continue // ⊤ is the unit of ∧
			}
			if inner, ok := x.(*And); ok {
				out = append(out, inner.Xs...)
				continue
			}
		} else {
			if f, ok := x.(*False); ok && f != nil {
				continue // ⊥ is the unit of ∨
			}
			if inner, ok := x.(*Or); ok {
				out = append(out, inner.Xs...)
				continue
			}
		}
		out = append(out, x)
	}
	return out
}

// Min returns ≥n E.φ.
func Min(n int, e paths.Expr, x Shape) Shape { return &MinCount{N: n, Path: e, X: x} }

// Max returns ≤n E.φ.
func Max(n int, e paths.Expr, x Shape) Shape { return &MaxCount{N: n, Path: e, X: x} }

// All returns ∀E.φ.
func All(e paths.Expr, x Shape) Shape { return &Forall{Path: e, X: x} }

// String renderings follow the paper's mathematical notation.

func (*True) String() string  { return "⊤" }
func (*False) String() string { return "⊥" }

func (s *HasShape) String() string { return "hasShape(" + s.Name.String() + ")" }
func (s *Test) String() string     { return "test(" + s.T.String() + ")" }
func (s *HasValue) String() string { return "hasValue(" + s.C.String() + ")" }

func pathOrID(e paths.Expr) string {
	if e == nil {
		return "id"
	}
	return e.String()
}

func (s *Eq) String() string   { return "eq(" + pathOrID(s.Path) + ", <" + s.P + ">)" }
func (s *Disj) String() string { return "disj(" + pathOrID(s.Path) + ", <" + s.P + ">)" }

func (s *Closed) String() string {
	parts := make([]string, len(s.Allowed))
	for i, p := range s.Allowed {
		parts[i] = "<" + p + ">"
	}
	return "closed({" + strings.Join(parts, ", ") + "})"
}

func (s *LessThan) String() string   { return "lessThan(" + s.Path.String() + ", <" + s.P + ">)" }
func (s *LessThanEq) String() string { return "lessThanEq(" + s.Path.String() + ", <" + s.P + ">)" }
func (s *UniqueLang) String() string { return "uniqueLang(" + s.Path.String() + ")" }
func (s *MoreThan) String() string   { return "moreThan(" + s.Path.String() + ", <" + s.P + ">)" }
func (s *MoreThanEq) String() string { return "moreThanEq(" + s.Path.String() + ", <" + s.P + ">)" }

func (s *Not) String() string { return "¬" + paren(s.X) }

func (s *And) String() string { return joinShapes(s.Xs, " ∧ ") }
func (s *Or) String() string  { return joinShapes(s.Xs, " ∨ ") }

func joinShapes(xs []Shape, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = paren(x)
	}
	return strings.Join(parts, sep)
}

func paren(x Shape) string {
	if compound(x) {
		return "(" + x.String() + ")"
	}
	return x.String()
}

func (s *MinCount) String() string {
	return fmt.Sprintf("≥%d %s.%s", s.N, s.Path, paren(s.X))
}

func (s *MaxCount) String() string {
	return fmt.Sprintf("≤%d %s.%s", s.N, s.Path, paren(s.X))
}

func (s *Forall) String() string {
	return fmt.Sprintf("∀%s.%s", s.Path, paren(s.X))
}

// Walk visits every subshape of φ in preorder, including φ itself.
func Walk(phi Shape, visit func(Shape)) {
	visit(phi)
	switch x := phi.(type) {
	case *Not:
		Walk(x.X, visit)
	case *And:
		for _, c := range x.Xs {
			Walk(c, visit)
		}
	case *Or:
		for _, c := range x.Xs {
			Walk(c, visit)
		}
	case *MinCount:
		Walk(x.X, visit)
	case *MaxCount:
		Walk(x.X, visit)
	case *Forall:
		Walk(x.X, visit)
	}
}

// ShapeRefs returns the shape names referenced via hasShape anywhere in φ.
func ShapeRefs(phi Shape) []rdf.Term {
	seen := make(map[rdf.Term]struct{})
	var out []rdf.Term
	Walk(phi, func(s Shape) {
		if ref, ok := s.(*HasShape); ok {
			if _, dup := seen[ref.Name]; !dup {
				seen[ref.Name] = struct{}{}
				out = append(out, ref.Name)
			}
		}
	})
	return out
}

// MentionedProperties returns all property IRIs occurring in φ, whether in
// path expressions, pair constraints, or closedness sets. This realizes the
// "properties mentioned in φ" notion of Lemma D.1.
func MentionedProperties(phi Shape) map[string]struct{} {
	out := make(map[string]struct{})
	addPath := func(e paths.Expr) {
		if e == nil {
			return
		}
		for p := range paths.Properties(e) {
			out[p] = struct{}{}
		}
	}
	Walk(phi, func(s Shape) {
		switch x := s.(type) {
		case *Eq:
			addPath(x.Path)
			out[x.P] = struct{}{}
		case *Disj:
			addPath(x.Path)
			out[x.P] = struct{}{}
		case *Closed:
			for _, p := range x.Allowed {
				out[p] = struct{}{}
			}
		case *LessThan:
			addPath(x.Path)
			out[x.P] = struct{}{}
		case *LessThanEq:
			addPath(x.Path)
			out[x.P] = struct{}{}
		case *UniqueLang:
			addPath(x.Path)
		case *MoreThan:
			addPath(x.Path)
			out[x.P] = struct{}{}
		case *MoreThanEq:
			addPath(x.Path)
			out[x.P] = struct{}{}
		case *MinCount:
			addPath(x.Path)
		case *MaxCount:
			addPath(x.Path)
		case *Forall:
			addPath(x.Path)
		}
	})
	return out
}
