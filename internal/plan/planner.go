package plan

import (
	"fmt"
	"strings"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapelint"
	"shaclfrag/internal/sparqltrans"
	"shaclfrag/internal/store"
)

// Strategy is one way to extract a shape's fragment.
type Strategy int

const (
	// StrategyPlan runs the compiled instruction program with dense memo
	// rows — the fast path for steady-state extraction.
	StrategyPlan Strategy = iota
	// StrategyDirect walks the shape AST with the map-memoized evaluator:
	// slower per node but with memory proportional to nodes actually
	// touched, and the only strategy that supports attribution recording.
	StrategyDirect
	// StrategySPARQL evaluates the translated fragment query (Section 5.1)
	// on the in-memory engine. Never cheaper here, but the paper's
	// portability story: the planner keeps it available for callers that
	// ship queries to an external endpoint, and prices it honestly.
	StrategySPARQL
)

var strategyNames = map[Strategy]string{
	StrategyPlan:   "plan",
	StrategyDirect: "direct",
	StrategySPARQL: "sparql",
}

func (s Strategy) String() string { return strategyNames[s] }

// ParseStrategy parses a strategy name ("plan", "direct", "sparql").
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return StrategyPlan, fmt.Errorf("plan: unknown strategy %q (want plan, direct or sparql)", name)
}

// DefaultMemoBudget bounds the dense memo memory one bound program may
// allocate (per worker — every worker binds its own). Programs whose rows
// would exceed it fall back to StrategyDirect, whose memo grows with the
// nodes actually visited instead of the dictionary size.
const DefaultMemoBudget = 64 << 20

// Config tunes the planner.
type Config struct {
	// MemoBudget caps MemoBytes per bound program; 0 means
	// DefaultMemoBudget, negative means unlimited.
	MemoBudget int64
	// Force pins every decision to one strategy, skipping the cost model
	// (the CLI's -strategy plan|direct|sparql). Vetoes still apply: a
	// forced plan over budget degrades to direct.
	Force Strategy
	// Forced reports whether Force is set.
	Forced bool
}

// Decision is the planner's choice for one shape definition, with the cost
// estimates that produced it so /metrics and `shaclfrag plan` can show the
// reasoning.
type Decision struct {
	Name     rdf.Term
	Strategy Strategy
	// Program is the compiled program; always present (the disassembler
	// and parity suites want it even for non-plan strategies).
	Program *Program
	// CostPlan/CostDirect/CostSPARQL are the model's estimates in
	// abstract work units (node visits weighted by operation kind).
	CostPlan, CostDirect, CostSPARQL float64
	// MemoBytes is the dense-row memory the plan strategy would pin.
	MemoBytes int64
	// Reason is a one-line explanation ("cheapest", "memo over budget",
	// "SL008 veto", "forced").
	Reason string
}

// SchemaPlan is the planner's output for a whole schema: one decision per
// definition, in definition order, plus the sampled stats they were priced
// against.
type SchemaPlan struct {
	Decisions []Decision
	Stats     store.CardStats
}

// Requests returns the request shapes (Shape ∧ Target per definition), in
// decision order — the same list FragmentParallel takes.
func (sp *SchemaPlan) Requests() []shape.Shape {
	out := make([]shape.Shape, len(sp.Decisions))
	for i, d := range sp.Decisions {
		out[i] = d.Program.Source
	}
	return out
}

// ProgramSet returns the compiled programs aligned with Requests, with nil
// entries for definitions the planner routed away from the plan strategy —
// exactly the shape core.ParallelOptions.Plans expects.
func (sp *SchemaPlan) ProgramSet() *Set {
	s := &Set{Programs: make([]*Program, len(sp.Decisions))}
	for i, d := range sp.Decisions {
		if d.Strategy == StrategyPlan {
			s.Programs[i] = d.Program
		}
	}
	return s
}

// Counts returns how many definitions landed on each strategy.
func (sp *SchemaPlan) Counts() map[Strategy]int {
	out := make(map[Strategy]int, 3)
	for _, d := range sp.Decisions {
		out[d.Strategy]++
	}
	return out
}

// String renders the plan as a table, one definition per line.
func (sp *SchemaPlan) String() string {
	var b strings.Builder
	for _, d := range sp.Decisions {
		fmt.Fprintf(&b, "%s\t%s\tplan=%.3g direct=%.3g sparql=%.3g\t%s\n",
			d.Name, d.Strategy, d.CostPlan, d.CostDirect, d.CostSPARQL, d.Reason)
	}
	return b.String()
}

// Cost-model weights. The units are abstract "node visits"; only the
// ratios matter, and they are calibrated against BENCH_1–3: direct
// evaluation costs ~4× a plan visit (map-keyed memo hits plus per-call
// sorting vs dense-row lookups), and the SPARQL engine pays roughly an
// order of magnitude over direct on the same workload (Fig. 2/3).
const (
	costPlanVisit   = 1.0  // one instruction × node check on dense rows
	costDirectVisit = 4.0  // same check through the map-memoized evaluator
	costBindPerByte = 0.01 // zeroing/allocating dense rows at bind time
	costSPARQLScan  = 10.0 // per triple scanned by the translated query
	costSPARQLOp    = 64.0 // per algebra operator materialization
)

// Compiled is the graph-independent half of planning a schema: per
// definition the compiled program, the size of its translated query and
// shapelint's expensive-path verdict. A server compiles once at load and
// re-runs only Decide per epoch.
type Compiled struct {
	defs []compiledDef
}

type compiledDef struct {
	name      rdf.Term
	prog      *Program
	query     sparqltrans.QueryStats
	expensive bool
}

// CompileSchema compiles every definition's request φ ∧ τ. Shapelint runs
// once over the schema: a definition carrying an SL008 (expensive unbounded
// path in universal or negated position) never goes to SPARQL, where the
// translated query re-traces the product automaton per binding with no
// memo.
func CompileSchema(h *schema.Schema) *Compiled {
	expensive := make(map[rdf.Term]bool)
	for _, d := range shapelint.Run(h) {
		if d.Code == shapelint.CodeExpensivePath {
			expensive[d.Shape] = true
		}
	}
	defs := h.Definitions()
	c := &Compiled{defs: make([]compiledDef, len(defs))}
	for i, d := range defs {
		request := shape.AndOf(d.Shape, d.Target)
		c.defs[i] = compiledDef{
			name:      d.Name,
			prog:      Compile(request, h),
			query:     sparqltrans.MeasureQuery(request, h),
			expensive: expensive[d.Name],
		}
	}
	return c
}

// Decide prices every compiled definition against the sampled stats and
// picks a strategy per shape: the cost comparison and the memo-budget veto,
// the only parts of planning that depend on the data.
func (c *Compiled) Decide(st store.CardStats, cfg Config) *SchemaPlan {
	budget := cfg.MemoBudget
	if budget == 0 {
		budget = DefaultMemoBudget
	}
	sp := &SchemaPlan{Decisions: make([]Decision, len(c.defs)), Stats: st}
	for i, d := range c.defs {
		dec := Decision{Name: d.name, Program: d.prog, MemoBytes: d.prog.MemoBytes(st.DictTerms)}

		nodes := float64(st.Nodes)
		instrs := float64(len(d.prog.Instrs))
		dec.CostPlan = nodes*instrs*costPlanVisit + float64(dec.MemoBytes)*costBindPerByte
		dec.CostDirect = nodes * instrs * costDirectVisit

		scanned := 0
		for _, p := range d.query.Preds {
			scanned += st.Card(p)
		}
		// Each path-trace subquery scans N(G) candidates through the
		// automaton; plain patterns scan their predicate's posting list.
		dec.CostSPARQL = costSPARQLScan*(float64(scanned)+float64(d.query.PathTraces)*nodes) +
			costSPARQLOp*float64(d.query.Ops+d.query.Patterns)

		dec.Strategy, dec.Reason = choose(dec, cfg, budget, d.expensive)
		sp.Decisions[i] = dec
	}
	return sp
}

// PlanSchema is CompileSchema followed by Decide, for callers that plan a
// schema against one snapshot only.
func PlanSchema(h *schema.Schema, st store.CardStats, cfg Config) *SchemaPlan {
	return CompileSchema(h).Decide(st, cfg)
}

// choose applies vetoes, then the cost comparison.
func choose(dec Decision, cfg Config, budget int64, expensivePath bool) (Strategy, string) {
	overBudget := budget >= 0 && dec.MemoBytes > budget

	if cfg.Forced {
		s := cfg.Force
		if s == StrategyPlan && overBudget {
			return StrategyDirect, fmt.Sprintf("forced plan, but memo %dB over budget %dB", dec.MemoBytes, budget)
		}
		if s == StrategySPARQL && expensivePath {
			return StrategyDirect, "forced sparql, but SL008 expensive path vetoes translation"
		}
		return s, "forced"
	}

	best, reason := StrategyPlan, "cheapest"
	cost := dec.CostPlan
	if dec.CostDirect < cost {
		best, cost = StrategyDirect, dec.CostDirect
	}
	if dec.CostSPARQL < cost && !expensivePath {
		best = StrategySPARQL
	}
	if best == StrategySPARQL && expensivePath {
		best, reason = StrategyDirect, "SL008 expensive path vetoes sparql"
	}
	if best == StrategyPlan && overBudget {
		best = StrategyDirect
		reason = fmt.Sprintf("memo %dB over budget %dB", dec.MemoBytes, budget)
	}
	return best, reason
}
