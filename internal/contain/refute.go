package contain

import (
	"math/rand"
	"sort"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// RefuteConfig bounds the random-graph model search.
type RefuteConfig struct {
	// Graphs is the number of random graphs to evaluate (default 40).
	Graphs int
	// Edges is the approximate edge count per graph (default 24).
	Edges int
	// Seed is the base RNG seed; graph i uses Seed+i, so witnesses are
	// reproducible (default 1).
	Seed int64
}

func (cfg RefuteConfig) withDefaults() RefuteConfig {
	if cfg.Graphs <= 0 {
		cfg.Graphs = 40
	}
	if cfg.Edges <= 0 {
		cfg.Edges = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Witness is a concrete refutation of φ1 ⊑ φ2: on Graph, Node conforms
// to φ1 (left schema) but not φ2 (right schema).
type Witness struct {
	// Node is the non-conforming focus node.
	Node rdf.Term
	// Graph is the witness graph's triples.
	Graph []rdf.Triple
	// Seed is the RNG seed that produced the graph.
	Seed int64
}

// Result pairs a verdict with the witness behind a NotContained answer.
type Result struct {
	Verdict Verdict
	Witness *Witness
}

// Check decides φ1 ⊑ φ2 end to end: the structural checker first, and on
// Unknown a randomized model search that can upgrade the answer to
// NotContained with a concrete witness. Unknown survives only when both
// halves give up, and is always safe to treat as "not contained".
func (c *Checker) Check(phi1, phi2 shape.Shape, cfg RefuteConfig) Result {
	if c.Contains(phi1, phi2) == Contained {
		return Result{Verdict: Contained}
	}
	if w, ok := c.Refute(phi1, phi2, cfg); ok {
		return Result{Verdict: NotContained, Witness: &w}
	}
	return Result{Verdict: Unknown}
}

// Refute searches random graphs for a node conforming to φ1 but not φ2.
// Graphs are generated over the vocabulary the two shapes (and their
// transitively referenced definitions) actually mention — properties,
// hasValue constants, closed property sets, test bounds — mixed with the
// shapetest universe, so targets like ≥1 rdf:type/subClassOf*.hasValue(c)
// are actually reachable. The search is sound by construction: a witness
// is only ever reported after both evaluators disagree on a concrete
// graph.
func (c *Checker) Refute(phi1, phi2 shape.Shape, cfg RefuteConfig) (Witness, bool) {
	cfg = cfg.withDefaults()
	voc := newVocabulary()
	voc.harvest(phi1, c.l.h)
	voc.harvest(phi2, c.r.h)
	for i := 0; i < cfg.Graphs; i++ {
		seed := cfg.Seed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		triples := voc.randomTriples(rng, cfg.Edges)
		g := rdfgraph.New()
		for _, t := range triples {
			g.Add(t)
		}
		evL := shape.NewEvaluator(g, defsOrNil(c.l.h))
		evR := shape.NewEvaluator(g, defsOrNil(c.r.h))
		for _, v := range voc.candidates(triples) {
			if evL.ConformsTerm(v, phi1) && !evR.ConformsTerm(v, phi2) {
				return Witness{Node: v, Graph: triples, Seed: seed}, true
			}
		}
	}
	return Witness{}, false
}

func defsOrNil(h *schema.Schema) shape.Defs {
	if h == nil {
		return nil
	}
	return h
}

// vocabulary is the term universe harvested from the shapes under test.
type vocabulary struct {
	props []string
	terms []rdf.Term

	propSeen map[string]bool
	termSeen map[string]bool
}

func newVocabulary() *vocabulary {
	v := &vocabulary{propSeen: make(map[string]bool), termSeen: make(map[string]bool)}
	// Always include the shapetest universe so shapes with no vocabulary
	// of their own (⊤-heavy formulas) still see varied graphs.
	for _, p := range []string{"p", "q", "r"} {
		v.addProp(shapetest.Base + p)
	}
	for _, n := range []string{"a", "b", "c"} {
		v.addTerm(shapetest.IRI(n))
	}
	v.addTerm(rdf.NewString("w"))
	v.addTerm(rdf.NewLangString("w", "en"))
	v.addTerm(rdf.NewInteger(0))
	v.addTerm(rdf.NewInteger(3))
	return v
}

func (v *vocabulary) addProp(iri string) {
	if !v.propSeen[iri] {
		v.propSeen[iri] = true
		v.props = append(v.props, iri)
	}
}

func (v *vocabulary) addTerm(t rdf.Term) {
	k := t.String()
	if !v.termSeen[k] {
		v.termSeen[k] = true
		v.terms = append(v.terms, t)
	}
}

// harvest walks phi and every definition reachable from it in h,
// collecting properties and constants.
func (v *vocabulary) harvest(phi shape.Shape, h *schema.Schema) {
	seen := make(map[rdf.Term]bool)
	var walkDef func(s shape.Shape)
	walkDef = func(s shape.Shape) {
		if s == nil {
			return
		}
		// MentionedProperties returns a map; sort before adding so the
		// vocabulary order — and with it every witness — is reproducible.
		var props []string
		for p := range shape.MentionedProperties(s) {
			props = append(props, p)
		}
		sort.Strings(props)
		for _, p := range props {
			v.addProp(p)
		}
		shape.Walk(s, func(n shape.Shape) {
			switch x := n.(type) {
			case *shape.HasValue:
				v.addTerm(x.C)
			case *shape.Test:
				v.harvestTest(x.T)
			case *shape.Closed:
				for _, p := range x.Allowed {
					v.addProp(p)
				}
			}
		})
		if h == nil {
			return
		}
		for _, ref := range shape.ShapeRefs(s) {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			if body, ok := h.Def(ref); ok {
				walkDef(body)
			}
		}
	}
	walkDef(phi)
}

// harvestTest adds boundary values around a test so the search probes
// both sides of each bound.
func (v *vocabulary) harvestTest(t shape.NodeTest) {
	switch x := t.(type) {
	case shape.Datatype:
		v.addTerm(rdf.NewTypedLiteral("0", x.IRI))
		v.addTerm(rdf.NewTypedLiteral("v", x.IRI))
	case shape.HasLang:
		v.addTerm(rdf.NewLangString("v", x.Tag))
	case shape.MinExclusive:
		v.addTerm(x.Bound)
	case shape.MaxExclusive:
		v.addTerm(x.Bound)
	case shape.MinInclusive:
		v.addTerm(x.Bound)
	case shape.MaxInclusive:
		v.addTerm(x.Bound)
	case shape.AnyOf:
		for _, sub := range x.Tests {
			v.harvestTest(sub)
		}
	}
}

// randomTriples draws a graph over the vocabulary. Subjects are IRIs or
// blanks; objects range over the whole term universe.
func (v *vocabulary) randomTriples(rng *rand.Rand, edges int) []rdf.Triple {
	var subjects []rdf.Term
	for _, t := range v.terms {
		if t.IsIRI() || t.IsBlank() {
			subjects = append(subjects, t)
		}
	}
	if len(subjects) == 0 || len(v.props) == 0 {
		return nil
	}
	n := rng.Intn(edges + 1)
	triples := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		s := subjects[rng.Intn(len(subjects))]
		p := v.props[rng.Intn(len(v.props))]
		o := v.terms[rng.Intn(len(v.terms))]
		triples = append(triples, rdf.T(s, rdf.NewIRI(p), o))
	}
	return triples
}

// candidates returns the focus nodes to test on a graph: every term in
// the vocabulary plus every subject/object of the graph, deduped, in a
// deterministic order.
func (v *vocabulary) candidates(triples []rdf.Triple) []rdf.Term {
	seen := make(map[string]bool)
	var out []rdf.Term
	add := func(t rdf.Term) {
		k := t.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	for _, t := range v.terms {
		add(t)
	}
	for _, tr := range triples {
		add(tr.S)
		add(tr.O)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.Compare(out[i], out[j]) < 0 })
	return out
}
