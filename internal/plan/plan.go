// Package plan compiles shape schemas into flat, immutable instruction
// programs evaluated entirely over interned term IDs.
//
// The AST evaluator (internal/shape.Evaluator) re-walks the shape tree per
// focus node and memoizes conformance in a map keyed by (shape pointer,
// node) — every check hashes an interface value, and every property access
// re-resolves IRIs and re-sorts value lists. At fragment scale (every node
// of the graph × every request shape) that map and its key hashing dominate
// the profile. A Program removes all of it: each NNF sub-shape becomes one
// numbered instruction whose operands — predicate IDs, constant IDs,
// allowed-property sets, path automata — are resolved once per dictionary
// the program is bound to (Bind), and conformance results live in
// per-instruction byte rows indexed by node ID, paged on first touch and
// pooled across requests.
// Steady-state evaluation touches no maps and allocates nothing.
//
// Compilation happens once per (schema, request): the shape is normalized
// to negation normal form, hasShape references are inlined through the
// schema (schemas are acyclic by construction, see schema.New), and each
// structurally distinct sub-shape is emitted exactly once. The companion
// extractor (Bound.CollectInto) implements Table 2 of the paper over
// instructions instead of AST nodes and is byte-for-byte identical to
// core.Extractor — property-tested and gated in the parity suites.
//
// There is no strategy choice: a program binds to every dictionary, its rows
// growing with the (instruction, node) pairs a request decides.
package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shape"
)

// Op enumerates instruction kinds. Each NNF production maps to exactly one
// op; negation appears only as the Neg* forms of the atoms it can wrap
// (the invariant NNF guarantees).
type Op uint8

const (
	OpTrue Op = iota
	OpFalse
	OpTest       // node test t ∈ Ω
	OpHasValue   // focus == constant
	OpEq         // eq(F, p)
	OpDisj       // disj(F, p)
	OpClosed     // closed(P)
	OpLessThan   // lessThan(E, p)
	OpLessThanEq // lessThanEq(E, p)
	OpMoreThan   // moreThan(E, p)
	OpMoreThanEq // moreThanEq(E, p)
	OpUniqueLang // uniqueLang(E)
	OpAnd        // conjunction over Args
	OpOr         // disjunction over Args
	OpMin        // ≥n E.φ, child Args[0]
	OpMax        // ≤n E.φ, child Args[0], negated child Args[1]
	OpForall     // ∀E.φ, child Args[0]
	OpRef        // hasShape(s) inlined: body Args[0]
	OpNeg        // negated atom: Args[0] is the atom instruction
)

var opNames = map[Op]string{
	OpTrue: "true", OpFalse: "false", OpTest: "test", OpHasValue: "hasvalue",
	OpEq: "eq", OpDisj: "disj", OpClosed: "closed",
	OpLessThan: "lessthan", OpLessThanEq: "lessthaneq",
	OpMoreThan: "morethan", OpMoreThanEq: "morethaneq",
	OpUniqueLang: "uniquelang", OpAnd: "and", OpOr: "or",
	OpMin: "min", OpMax: "max", OpForall: "forall", OpRef: "ref", OpNeg: "neg",
}

func (o Op) String() string { return opNames[o] }

// NoPath marks an instruction whose path operand is id (the focus node).
const NoPath int32 = -1

// Instr is one compiled instruction. The operand set is the union over all
// ops; unused fields are zero. Instructions are immutable once compiled.
type Instr struct {
	Op Op
	// Args are child instruction indexes (And/Or children; quantifier
	// bodies; the atom under a negation; the inlined body of a reference).
	Args []int32
	// N is the count bound of OpMin/OpMax.
	N int
	// Path indexes Program.Paths, or NoPath for id. For OpEq it is the
	// eq path F; TracePath below carries the E ∪ p union used by Table 2.
	Path int32
	// TracePath indexes Program.Paths for OpEq's extraction trace
	// (the Alt{F, p} union), or NoPath when F = id.
	TracePath int32
	// Pred is the property IRI of the pair constraints (eq, disj, order).
	Pred string
	// Const is the constant term of OpHasValue.
	Const rdf.Term
	// Allowed is the sorted allowed-property set of OpClosed.
	Allowed []string
	// Test is the node test of OpTest.
	Test shape.NodeTest
	// Name is the referenced definition of OpRef, kept for disassembly.
	Name rdf.Term
	// Shape is the NNF sub-shape this instruction decides; retained so
	// diagnostics and the disassembler can print the algebra it came from.
	Shape shape.Shape
}

// Program is one compiled shape: a flat instruction array plus the path
// expressions its instructions reference. The compiled fields are immutable
// and graph-independent; Bind resolves them against a concrete graph, and
// keeps that resolution and the released Bounds' state for the next Bind.
type Program struct {
	// Instrs holds the instructions; Root indexes the entry point.
	Instrs []Instr
	Root   int32
	// Paths are the distinct path expressions referenced by Path/TracePath
	// operands; one evaluator per entry is built at bind time.
	Paths []paths.Expr
	// Source is the request shape the program was compiled from (pre-NNF).
	Source shape.Shape

	// res is the resolution of the dictionary last bound to, and states
	// pools the state of released Bounds (Bind, Release).
	res    atomic.Pointer[resolution]
	states sync.Pool
}

// compiler carries the state of one compilation.
type compiler struct {
	defs     shape.Defs
	prog     *Program
	byID     map[uint32]int32 // shape.ID of the NNF sub-shape → instruction
	pathSlot map[paths.Expr]int32
}

// Compile compiles φ (any shape; it is normalized internally) against defs,
// which resolves hasShape references and may be nil. Undefined references
// behave as ⊤, mirroring evaluation.
func Compile(phi shape.Shape, defs shape.Defs) *Program {
	c := &compiler{
		defs:     defs,
		prog:     &Program{Source: phi},
		byID:     make(map[uint32]int32),
		pathSlot: make(map[paths.Expr]int32),
	}
	c.prog.Root = c.compile(shape.NNF(phi))
	return c.prog
}

// path interns a path expression, returning its slot (NoPath for nil = id).
func (c *compiler) path(e paths.Expr) int32 {
	if e == nil {
		return NoPath
	}
	if i, ok := c.pathSlot[e]; ok {
		return i
	}
	i := int32(len(c.prog.Paths))
	c.prog.Paths = append(c.prog.Paths, e)
	c.pathSlot[e] = i
	return i
}

// emit appends one instruction, deduplicating on the NNF sub-shape's
// structural identity: distinct nodes that print identically decide
// identically, so they share one instruction and one memo row.
func (c *compiler) emit(s shape.Shape, build func() Instr) int32 {
	id := shape.ID(s)
	if i, ok := c.byID[id]; ok {
		return i
	}
	// Reserve the slot before building so child compilation lands after;
	// schemas are acyclic (schema.New enforces it), so a child can never
	// reference the instruction under construction.
	i := int32(len(c.prog.Instrs))
	c.prog.Instrs = append(c.prog.Instrs, Instr{Shape: s})
	c.byID[id] = i
	in := build()
	in.Shape = s
	c.prog.Instrs[i] = in
	return i
}

// compile emits instructions for an NNF shape, returning the root index.
func (c *compiler) compile(phi shape.Shape) int32 {
	switch x := phi.(type) {
	case *shape.True:
		return c.emit(phi, func() Instr { return Instr{Op: OpTrue, Path: NoPath, TracePath: NoPath} })
	case *shape.False:
		return c.emit(phi, func() Instr { return Instr{Op: OpFalse, Path: NoPath, TracePath: NoPath} })
	case *shape.Test:
		return c.emit(phi, func() Instr { return Instr{Op: OpTest, Test: x.T, Path: NoPath, TracePath: NoPath} })
	case *shape.HasValue:
		return c.emit(phi, func() Instr { return Instr{Op: OpHasValue, Const: x.C, Path: NoPath, TracePath: NoPath} })
	case *shape.Eq:
		return c.emit(phi, func() Instr {
			in := Instr{Op: OpEq, Path: c.path(x.Path), TracePath: NoPath, Pred: x.P}
			if x.Path != nil {
				in.TracePath = c.path(paths.Alt{Left: x.Path, Right: paths.P(x.P)})
			}
			return in
		})
	case *shape.Disj:
		return c.pair(phi, OpDisj, x.Path, x.P)
	case *shape.Closed:
		return c.emit(phi, func() Instr { return Instr{Op: OpClosed, Allowed: x.Allowed, Path: NoPath, TracePath: NoPath} })
	case *shape.LessThan:
		return c.pair(phi, OpLessThan, x.Path, x.P)
	case *shape.LessThanEq:
		return c.pair(phi, OpLessThanEq, x.Path, x.P)
	case *shape.MoreThan:
		return c.pair(phi, OpMoreThan, x.Path, x.P)
	case *shape.MoreThanEq:
		return c.pair(phi, OpMoreThanEq, x.Path, x.P)
	case *shape.UniqueLang:
		return c.emit(phi, func() Instr {
			return Instr{Op: OpUniqueLang, Path: c.path(x.Path), TracePath: NoPath}
		})
	case *shape.And:
		return c.emit(phi, func() Instr { return Instr{Op: OpAnd, Args: c.compileAll(x.Xs), Path: NoPath, TracePath: NoPath} })
	case *shape.Or:
		return c.emit(phi, func() Instr { return Instr{Op: OpOr, Args: c.compileAll(x.Xs), Path: NoPath, TracePath: NoPath} })
	case *shape.MinCount:
		return c.emit(phi, func() Instr {
			return Instr{Op: OpMin, N: x.N, Path: c.path(x.Path), TracePath: NoPath,
				Args: []int32{c.compile(x.X)}}
		})
	case *shape.MaxCount:
		return c.emit(phi, func() Instr {
			// Args[1] is NNF(¬ψ): Table 2's ≤n row recurses into it for
			// every counterexample successor.
			return Instr{Op: OpMax, N: x.N, Path: c.path(x.Path), TracePath: NoPath,
				Args: []int32{c.compile(x.X), c.compile(shape.NegNNF(x.X))}}
		})
	case *shape.Forall:
		return c.emit(phi, func() Instr {
			return Instr{Op: OpForall, Path: c.path(x.Path), TracePath: NoPath,
				Args: []int32{c.compile(x.X)}}
		})
	case *shape.HasShape:
		return c.emit(phi, func() Instr {
			return Instr{Op: OpRef, Name: x.Name, Path: NoPath, TracePath: NoPath,
				Args: []int32{c.compile(shape.NNF(shape.Resolve(c.defs, x.Name)))}}
		})
	case *shape.Not:
		return c.emit(phi, func() Instr {
			in := Instr{Op: OpNeg, Path: NoPath, TracePath: NoPath}
			switch a := x.X.(type) {
			case *shape.HasShape:
				// ¬hasShape(s) evaluates and extracts via NNF(¬def(s)); the
				// atom instruction is that body, flagged by Name.
				in.Name = a.Name
				in.Args = []int32{c.compile(shape.NegNNF(shape.Resolve(c.defs, a.Name)))}
			default:
				in.Args = []int32{c.compile(x.X)}
			}
			return in
		})
	}
	panic("plan: shape not in NNF: " + phi.String())
}

// pair emits a pair constraint over E (nil for id) and the property p.
func (c *compiler) pair(phi shape.Shape, op Op, e paths.Expr, p string) int32 {
	return c.emit(phi, func() Instr { return Instr{Op: op, Path: c.path(e), TracePath: NoPath, Pred: p} })
}

// compileAll compiles the arguments of an ∧ or ∨.
func (c *compiler) compileAll(xs []shape.Shape) []int32 {
	args := make([]int32, len(xs))
	for i, x := range xs {
		args[i] = c.compile(x)
	}
	return args
}

// NumInstrs returns the instruction count.
func (p *Program) NumInstrs() int { return len(p.Instrs) }

// String disassembles the program into a stable text form, one instruction
// per line; `shaclfrag plan` prints it and a golden test pins it.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d instr, %d path(s), root @%d\n", len(p.Instrs), len(p.Paths), p.Root)
	for i, in := range p.Instrs {
		fmt.Fprintf(&b, "%3d: %-10s", i, in.Op)
		switch in.Op {
		case OpMin, OpMax:
			fmt.Fprintf(&b, " n=%d", in.N)
		}
		if in.Path != NoPath {
			fmt.Fprintf(&b, " path=%s", p.Paths[in.Path])
		}
		if in.Pred != "" {
			fmt.Fprintf(&b, " pred=<%s>", in.Pred)
		}
		if in.Const != (rdf.Term{}) {
			fmt.Fprintf(&b, " const=%s", in.Const)
		}
		if in.Op == OpTest {
			fmt.Fprintf(&b, " test=%s", in.Test)
		}
		if len(in.Allowed) > 0 {
			fmt.Fprintf(&b, " allowed={<%s>}", strings.Join(in.Allowed, ">, <"))
		}
		if in.Name != (rdf.Term{}) {
			fmt.Fprintf(&b, " shape=%s", in.Name)
		}
		if len(in.Args) > 0 {
			args := make([]string, len(in.Args))
			for j, a := range in.Args {
				args[j] = fmt.Sprintf("@%d", a)
			}
			fmt.Fprintf(&b, " args=[%s]", strings.Join(args, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Set is a group of programs compiled against one schema, one per request
// shape, in request order. A nil entry runs its request on the AST walker.
type Set struct {
	Programs []*Program
}

// CompileAll compiles every request against defs.
func CompileAll(requests []shape.Shape, defs shape.Defs) *Set {
	s := &Set{Programs: make([]*Program, len(requests))}
	for i, r := range requests {
		s.Programs[i] = Compile(r, defs)
	}
	return s
}

// NumInstrs sums instruction counts across the set's programs.
func (s *Set) NumInstrs() int {
	if s == nil {
		return 0
	}
	total := 0
	for _, p := range s.Programs {
		if p != nil {
			total += len(p.Instrs)
		}
	}
	return total
}
