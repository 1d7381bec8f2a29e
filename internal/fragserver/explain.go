package fragserver

import (
	"encoding/json"
	"net/http"

	"shaclfrag/internal/core"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
)

// Wire types for the /explain JSON response. Terms are rendered in
// N-Triples concrete syntax (<iri>, _:label, "literal"^^<dt>), matching the
// N-Triples bodies the other routes stream.

type explainStep struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Pred string `json:"pred"`
	Fwd  bool   `json:"fwd"`
}

type explainJustification struct {
	Shape      string       `json:"shape,omitempty"`
	Constraint string       `json:"constraint"`
	Kind       string       `json:"kind"`
	Negated    bool         `json:"negated,omitempty"`
	Focus      string       `json:"focus"`
	Step       *explainStep `json:"step,omitempty"`
}

type explainTriple struct {
	S              string                 `json:"s"`
	P              string                 `json:"p"`
	O              string                 `json:"o"`
	Justifications []explainJustification `json:"justifications"`
}

type explainShapeStatus struct {
	Name     string `json:"name"`
	Conforms *bool  `json:"conforms,omitempty"` // omitted when the focus term is unknown
}

type explainResponse struct {
	Focus   string               `json:"focus"`
	Shapes  []explainShapeStatus `json:"shapes"`
	Triples []explainTriple      `json:"triples"`
}

// handleExplain serves GET /explain?iri=<term>[&shape=<name>]: the
// neighborhood of the node for the named definition (or all definitions),
// annotated per triple with the Table 2 justifications that pulled it in.
// The route shares the in-flight limiter and request timeout with every
// other route; Config.DisableExplain turns it off entirely.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.explainOff {
		http.Error(w, "explain is disabled on this server", http.StatusNotFound)
		return
	}
	root := obs.FromContext(r.Context())
	q := r.URL.Query()
	rawIRI := q.Get("iri")
	if rawIRI == "" {
		http.Error(w, "missing iri parameter", http.StatusBadRequest)
		return
	}
	parse := root.StartChild("parse")
	focus, err := parseTermParam(rawIRI)
	parse.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	target := root.StartChild("target")
	defs := s.h.Definitions()
	if name := q.Get("shape"); name != "" {
		i, ok := s.defIndex(name)
		if !ok {
			target.End()
			http.Error(w, "unknown or ambiguous shape "+name, http.StatusNotFound)
			return
		}
		defs = defs[i : i+1]
	} else {
		// Default to the IRI-named definitions: the auxiliary blank-named
		// property shapes a SHACL translation introduces are reachable from
		// those through hasShape and would only repeat themselves.
		var named []schema.Definition
		for _, d := range defs {
			if d.Name.IsIRI() {
				named = append(named, d)
			}
		}
		if len(named) > 0 {
			defs = named
		}
	}
	snap, done := s.snapshot(w)
	defer done()
	g := snap.Reader()
	id := g.LookupTerm(focus)
	target.End()

	resp := explainResponse{Focus: focus.String(), Triples: []explainTriple{}}
	x := s.acquire(g)
	defer s.release(x)
	extract := root.StartChild("extract")
	ex := core.NewExplanation(g)
	ctx := r.Context()
	err = x.WithStop(ctx, func() error { // a search polls ctx too, not only this loop
		for _, d := range defs {
			status := explainShapeStatus{Name: d.Name.String()}
			if id != rdfgraph.NoID {
				if err := ctx.Err(); err != nil {
					return err
				}
				conforms := x.Evaluator().Conforms(id, d.Shape)
				status.Conforms = &conforms
				x.ExplainInto(ex, focus, d.Name, d.Shape)
			}
			resp.Shapes = append(resp.Shapes, status)
		}
		return nil
	})
	extract.End()
	if err != nil {
		httpTimeoutError(w, r, err)
		return
	}

	var justifications int
	for _, at := range ex.Annotated() {
		et := explainTriple{
			S: at.Triple.S.String(), P: at.Triple.P.String(), O: at.Triple.O.String(),
			Justifications: make([]explainJustification, 0, len(at.Justifications)),
		}
		for _, j := range at.Justifications {
			ej := explainJustification{
				Constraint: j.Constraint.String(),
				Kind:       j.Kind(),
				Negated:    j.Negated,
				Focus:      g.Term(j.Focus).String(),
			}
			if j.Shape != (rdf.Term{}) {
				ej.Shape = j.Shape.String()
			}
			if j.HasStep {
				ej.Step = &explainStep{
					From: j.Step.From, To: j.Step.To,
					Pred: g.Term(j.Step.Pred).String(), Fwd: j.Step.Fwd,
				}
			}
			et.Justifications = append(et.Justifications, ej)
			justifications++
		}
		resp.Triples = append(resp.Triples, et)
	}
	s.metrics.explainTriples.Add(uint64(len(resp.Triples)))
	s.metrics.explainJust.Add(uint64(justifications))

	defer root.StartChild("serialize").End()
	setServerTiming(w, root)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck — nothing to do about a failed write
}

// sampleAttribution implements Config.AttributionSample: it returns the
// shared tally recorder for every Nth extraction request and nil otherwise.
// Sampled extractions bypass the neighborhood cache (attribution must
// re-derive), so N trades justification telemetry against cache hit rate.
func (s *Server) sampleAttribution() core.AttributionRecorder {
	if s.sampleN <= 0 {
		return nil
	}
	if s.sampleCount.Add(1)%uint64(s.sampleN) != 0 {
		return nil
	}
	s.metrics.sampled.Inc()
	return s.metrics.tally
}

// tallyRecorder is the sampling AttributionRecorder: instead of retaining
// justifications it bumps one counter per constraint kind, giving operators
// a running profile of *which* Table 2 rules account for served triples.
// All counters are pre-created, so Record touches only atomics; shape
// strings are never rendered on this path.
type tallyRecorder struct {
	total  *obs.Counter
	byKind map[string]*obs.Counter
}

func newTallyRecorder(reg *obs.Registry) *tallyRecorder {
	t := &tallyRecorder{
		total: reg.Counter(mAttrJustTotal,
			"Justifications recorded by sampled attribution, total."),
		byKind: make(map[string]*obs.Counter, len(core.ConstraintKinds)),
	}
	for _, k := range core.ConstraintKinds {
		t.byKind[k] = reg.Counter(mAttrJustByKind,
			"Justifications recorded by sampled attribution, by constraint kind.",
			obs.L("constraint", k))
	}
	return t
}

// Record implements core.AttributionRecorder.
func (t *tallyRecorder) Record(_ rdfgraph.IDTriple, j core.Justification) {
	t.total.Inc()
	if c, ok := t.byKind[j.Kind()]; ok {
		c.Inc()
	}
}

var _ core.AttributionRecorder = (*tallyRecorder)(nil)
