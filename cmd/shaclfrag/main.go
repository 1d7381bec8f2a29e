// Command shaclfrag validates RDF graphs against SHACL shapes graphs and
// extracts provenance: neighborhoods, why-not explanations, and shape
// fragments. It also renders the SPARQL translation of shapes.
//
// Usage:
//
//	shaclfrag validate     -data data.ttl -shapes shapes.ttl
//	shaclfrag fragment     -data data.ttl -shapes shapes.ttl [-o out.nt]
//	shaclfrag neighborhood -data data.ttl -shapes shapes.ttl -node <iri> [-shape <name>]
//	shaclfrag explain      -data data.ttl -shapes shapes.ttl -node <iri> [-shape <name>] [-json] [-diff <name>]
//	shaclfrag whynot       -data data.ttl -shapes shapes.ttl -node <iri> [-shape <name>]
//	shaclfrag translate    -shapes shapes.ttl [-shape <name>]
//	shaclfrag plan         -shapes shapes.ttl [-shape <name>]
//	shaclfrag lint         shapes.ttl [more.ttl ...] [-json]
//	shaclfrag schema-diff  old.ttl new.ttl [-json] [-graphs N] [-seed N]
//	shaclfrag tpf          -data data.ttl -pattern '?x <http://x/p> ?y'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	shaclfrag "shaclfrag"
	"shaclfrag/internal/core"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/tpf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "fragment":
		err = cmdFragment(os.Args[2:])
	case "neighborhood":
		err = cmdNeighborhood(os.Args[2:], false)
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "whynot":
		err = cmdNeighborhood(os.Args[2:], true)
	case "translate":
		err = cmdTranslate(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "schema-diff":
		err = cmdSchemaDiff(os.Args[2:])
	case "tpf":
		err = cmdTPF(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "shaclfrag: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shaclfrag:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `shaclfrag — SHACL validation with data provenance

commands:
  validate      validate a data graph against a shapes graph
  fragment      extract the shape fragment Frag(G, H)
  neighborhood  extract B(v, G, φ) for one focus node
  explain       extract B(v, G, φ) annotated with per-triple justifications
  whynot        extract the why-not provenance B(v, G, ¬φ)
  translate     render the SPARQL translation of the shapes
  plan          disassemble compiled shape plans
  lint          statically analyze shapes graphs for contradictions and dead shapes
  schema-diff   classify per-definition changes between two shapes-graph versions
  tpf           evaluate a triple pattern fragment and its request shape`)
}

func loadGraph(path string) (*shaclfrag.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return shaclfrag.ParseTurtle(string(data))
}

func loadSchema(path string) (*shaclfrag.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return shaclfrag.ParseShapesGraph(string(data))
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	dataPath := fs.String("data", "", "data graph (Turtle)")
	shapesPath := fs.String("shapes", "", "shapes graph (Turtle)")
	verbose := fs.Bool("v", false, "print every result, not only violations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*dataPath)
	if err != nil {
		return err
	}
	h, err := loadSchema(*shapesPath)
	if err != nil {
		return err
	}
	report := shaclfrag.Validate(g, h)
	for _, r := range report.Results {
		if !r.Conforms {
			fmt.Printf("VIOLATION %s focus %s\n", r.ShapeName, r.Focus)
		} else if *verbose {
			fmt.Printf("ok        %s focus %s\n", r.ShapeName, r.Focus)
		}
	}
	fmt.Printf("conforms: %v (%d focus nodes checked, %d violations)\n",
		report.Conforms, report.TargetedNodes, len(report.Violations()))
	if !report.Conforms {
		os.Exit(1)
	}
	return nil
}

func cmdFragment(args []string) error {
	fs := flag.NewFlagSet("fragment", flag.ExitOnError)
	dataPath := fs.String("data", "", "data graph (Turtle)")
	shapesPath := fs.String("shapes", "", "shapes graph (Turtle)")
	request := fs.String("request", "", `ad-hoc request shape in textual syntax, e.g. '>=1 <http://x/p>.top'`)
	baseIRI := fs.String("base", "", "base IRI for bare names in -request")
	outPath := fs.String("o", "", "output file (default stdout)")
	strategy := fs.String("strategy", "plan", "extraction strategy: plan (compiled programs), direct (the AST walker), or sparql")
	workers := fs.Int("workers", 0, "parallel extraction workers for -strategy plan (0 = GOMAXPROCS)")
	traced := fs.Bool("trace", false, "print the extraction's span tree to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var trace *obs.SpanTrace
	var root *obs.Span // nil without -trace: every span call is a no-op
	if *traced {
		trace = obs.NewSpanTrace("fragment", obs.SpanContext{})
		root = trace.Root()
	}
	load := root.StartChild("load")
	g, err := loadGraph(*dataPath)
	load.End()
	if err != nil {
		return err
	}
	var requests []shaclfrag.Shape
	var h *shaclfrag.Schema
	switch {
	case *request != "":
		phi, err := shaclfrag.ParseShape(*request, *baseIRI)
		if err != nil {
			return err
		}
		requests = []shaclfrag.Shape{phi}
	case *shapesPath != "":
		if h, err = loadSchema(*shapesPath); err != nil {
			return err
		}
		for _, d := range h.Definitions() {
			requests = append(requests, shape.AndOf(d.Shape, d.Target))
		}
	default:
		return fmt.Errorf("need -shapes or -request")
	}
	var frag []shaclfrag.Triple
	switch *strategy {
	case "sparql":
		// The paper's translation strategy, unconditionally: build Q_S and
		// evaluate it on the in-memory engine.
		sq := root.StartChild("sparql-eval")
		frag = shaclfrag.FragmentViaSPARQL(g, h, requests...)
		sq.End()
	case "direct", "plan":
		// Workers read the graph concurrently: intern the request
		// constants, then freeze it.
		store.WarmShapes(g, requests...)
		g.Freeze()
		var defs shape.Defs
		if h != nil {
			defs = h
		}
		x := core.NewExtractor(g, defs)
		extract := root.StartChild("extract")
		if *strategy == "direct" {
			// The AST walker over N(G), Table 2 read literally.
			frag = x.Fragment(requests)
		} else {
			frag, err = x.FragmentParallel(requests, core.ParallelOptions{Workers: *workers, Span: extract})
		}
		extract.End()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -strategy %q (want plan, direct or sparql)", *strategy)
	}
	serialize := root.StartChild("serialize")
	out := shaclfrag.FormatNTriples(frag)
	serialize.End()
	if trace != nil {
		root.SetAttrInt("triples", int64(len(frag)))
		root.End()
		trace.WriteTree(os.Stderr)
	}
	if *outPath == "" {
		fmt.Print(out)
		return nil
	}
	return os.WriteFile(*outPath, []byte(out), 0o644)
}

// pickShape returns the request shape for -shape (φ ∧ τ of the named
// definition) or, with no -shape, the disjunction over all definitions.
func pickShape(h *shaclfrag.Schema, name string) (shaclfrag.Shape, error) {
	if name == "" {
		var all []shaclfrag.Shape
		for _, d := range h.Definitions() {
			all = append(all, shape.AndOf(d.Shape, d.Target))
		}
		return shape.OrOf(all...), nil
	}
	for _, d := range h.Definitions() {
		if d.Name.Value == name || strings.HasSuffix(d.Name.Value, name) {
			return d.Shape, nil
		}
	}
	return nil, fmt.Errorf("no shape named %q in the shapes graph", name)
}

func cmdNeighborhood(args []string, whyNot bool) error {
	fs := flag.NewFlagSet("neighborhood", flag.ExitOnError)
	dataPath := fs.String("data", "", "data graph (Turtle)")
	shapesPath := fs.String("shapes", "", "shapes graph (Turtle)")
	node := fs.String("node", "", "focus node IRI")
	shapeName := fs.String("shape", "", "shape name (default: all shapes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return fmt.Errorf("-node is required")
	}
	g, err := loadGraph(*dataPath)
	if err != nil {
		return err
	}
	h, err := loadSchema(*shapesPath)
	if err != nil {
		return err
	}
	phi, err := pickShape(h, *shapeName)
	if err != nil {
		return err
	}
	focus := rdf.NewIRI(strings.Trim(*node, "<>"))
	var triples []shaclfrag.Triple
	if whyNot {
		triples = shaclfrag.WhyNot(g, h, focus, phi)
	} else {
		triples = shaclfrag.Neighborhood(g, h, focus, phi)
	}
	conforms := shaclfrag.Conforms(g, h, focus, phi)
	fmt.Printf("# focus %s conforms: %v; %d provenance triples\n", focus, conforms, len(triples))
	fmt.Print(shaclfrag.FormatNTriples(triples))
	return nil
}

// pickDefs returns the named definition (exact or suffix match) or, with
// no name, every IRI-named definition in the schema — the auxiliary
// blank-named property shapes the SHACL translation introduces are
// reachable from those through hasShape and would only repeat themselves.
func pickDefs(h *shaclfrag.Schema, name string) ([]shaclfrag.Definition, error) {
	defs := h.Definitions()
	if name == "" {
		var named []shaclfrag.Definition
		for _, d := range defs {
			if d.Name.IsIRI() {
				named = append(named, d)
			}
		}
		if len(named) > 0 {
			return named, nil
		}
		return defs, nil
	}
	for _, d := range defs {
		if d.Name.Value == name || strings.HasSuffix(d.Name.Value, name) {
			return []shaclfrag.Definition{d}, nil
		}
	}
	return nil, fmt.Errorf("no shape named %q in the shapes graph", name)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dataPath := fs.String("data", "", "data graph (Turtle)")
	shapesPath := fs.String("shapes", "", "shapes graph (Turtle)")
	node := fs.String("node", "", "focus node IRI")
	shapeName := fs.String("shape", "", "shape name (default: all shapes)")
	diffName := fs.String("diff", "", "second shape name: print only the triples -shape pulls in over this one")
	asJSON := fs.Bool("json", false, "emit JSON instead of annotated N-Triples")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return fmt.Errorf("-node is required")
	}
	g, err := loadGraph(*dataPath)
	if err != nil {
		return err
	}
	h, err := loadSchema(*shapesPath)
	if err != nil {
		return err
	}
	defs, err := pickDefs(h, *shapeName)
	if err != nil {
		return err
	}
	focus := rdf.NewIRI(strings.Trim(*node, "<>"))

	type shapeStatus struct {
		Name     string `json:"name"`
		Conforms bool   `json:"conforms"`
	}
	x := core.NewExtractor(g, h)
	ex := core.NewExplanation(g)
	var statuses []shapeStatus
	for _, d := range defs {
		statuses = append(statuses, shapeStatus{
			Name:     d.Name.String(),
			Conforms: shaclfrag.Conforms(g, h, focus, d.Shape),
		})
		x.ExplainInto(ex, focus, d.Name, d.Shape)
	}
	annotated := ex.Annotated()

	if *diffName != "" {
		dd, err := pickDefs(h, *diffName)
		if err != nil {
			return err
		}
		other := core.NewExplanation(g)
		for _, d := range dd {
			x.ExplainInto(other, focus, d.Name, d.Shape)
		}
		annotated = shaclfrag.ExplainDiff(ex, other)
	}

	if *asJSON {
		type jsonTriple struct {
			S              string   `json:"s"`
			P              string   `json:"p"`
			O              string   `json:"o"`
			Justifications []string `json:"justifications"`
		}
		out := struct {
			Focus   string        `json:"focus"`
			Shapes  []shapeStatus `json:"shapes"`
			Triples []jsonTriple  `json:"triples"`
		}{Focus: focus.String(), Shapes: statuses, Triples: []jsonTriple{}}
		for _, at := range annotated {
			out.Triples = append(out.Triples, jsonTriple{
				S: at.Triple.S.String(), P: at.Triple.P.String(), O: at.Triple.O.String(),
				Justifications: at.Rendered,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("# focus %s; %d explained triples\n", focus, len(annotated))
	for _, st := range statuses {
		fmt.Printf("# shape %s conforms: %v\n", st.Name, st.Conforms)
	}
	if *diffName != "" {
		fmt.Printf("# diff: triples not justified under %q\n", *diffName)
	}
	for _, at := range annotated {
		fmt.Printf("%s %s %s .\n", at.Triple.S, at.Triple.P, at.Triple.O)
		for _, r := range at.Rendered {
			fmt.Printf("#   ⇐ %s\n", r)
		}
	}
	return nil
}

func cmdTranslate(args []string) error {
	fs := flag.NewFlagSet("translate", flag.ExitOnError)
	shapesPath := fs.String("shapes", "", "shapes graph (Turtle)")
	shapeName := fs.String("shape", "", "shape name (default: fragment query over all shapes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := loadSchema(*shapesPath)
	if err != nil {
		return err
	}
	if *shapeName != "" {
		phi, err := pickShape(h, *shapeName)
		if err != nil {
			return err
		}
		fmt.Print(shaclfrag.NeighborhoodSPARQL(h, phi))
		return nil
	}
	var requests []shaclfrag.Shape
	for _, d := range h.Definitions() {
		requests = append(requests, shape.AndOf(d.Shape, d.Target))
	}
	fmt.Print(shaclfrag.FragmentSPARQL(h, requests...))
	return nil
}

// cmdPlan disassembles the compiled instruction programs of a shapes graph.
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	shapesPath := fs.String("shapes", "", "shapes graph (Turtle)")
	shapeName := fs.String("shape", "", "shape name (default: every definition)")
	traced := fs.Bool("trace", false, "print the span tree (loading shapes) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var trace *obs.SpanTrace
	var root *obs.Span
	if *traced {
		trace = obs.NewSpanTrace("plan", obs.SpanContext{})
		root = trace.Root()
	}
	loadSp := root.StartChild("load-shapes")
	h, err := loadSchema(*shapesPath)
	loadSp.End()
	if err != nil {
		return err
	}

	if trace != nil {
		// The remaining work is the per-definition disassembly loop; the
		// tree goes out after it so the root duration covers everything.
		defer func() {
			root.SetAttrInt("shapes", int64(h.Len()))
			root.End()
			trace.WriteTree(os.Stderr)
		}()
	}

	printed := 0
	for _, d := range h.Definitions() {
		if *shapeName != "" && d.Name.Value != *shapeName && !strings.HasSuffix(d.Name.Value, *shapeName) {
			continue
		}
		if printed > 0 {
			fmt.Println()
		}
		printed++
		fmt.Printf("== %s\n", d.Name)
		fmt.Print(plan.Compile(shape.AndOf(d.Shape, d.Target), h))
	}
	if printed == 0 {
		return fmt.Errorf("no shape named %q in the shapes graph", *shapeName)
	}
	return nil
}

func cmdTPF(args []string) error {
	fs := flag.NewFlagSet("tpf", flag.ExitOnError)
	dataPath := fs.String("data", "", "data graph (Turtle)")
	patternText := fs.String("pattern", "", `triple pattern, e.g. '?x <http://x/p> ?y'`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pattern, err := parsePattern(*patternText)
	if err != nil {
		return err
	}
	g, err := loadGraph(*dataPath)
	if err != nil {
		return err
	}
	phi, ok := pattern.RequestShape()
	if ok {
		fmt.Printf("# request shape: %s\n", phi)
	} else {
		fmt.Printf("# not expressible as a shape fragment (Proposition 6.2)\n")
	}
	fmt.Print(shaclfrag.FormatNTriples(pattern.Eval(g)))
	return nil
}

func parsePattern(text string) (tpf.Pattern, error) {
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return tpf.Pattern{}, fmt.Errorf("pattern must have three components, got %q", text)
	}
	pos := make([]tpf.Pos, 3)
	for i, f := range fields {
		switch {
		case strings.HasPrefix(f, "?"):
			pos[i] = tpf.V(strings.TrimPrefix(f, "?"))
		case strings.HasPrefix(f, "<") && strings.HasSuffix(f, ">"):
			pos[i] = tpf.C(rdf.NewIRI(strings.Trim(f, "<>")))
		case strings.HasPrefix(f, `"`):
			pos[i] = tpf.C(rdf.NewString(strings.Trim(f, `"`)))
		default:
			return tpf.Pattern{}, fmt.Errorf("cannot parse pattern component %q", f)
		}
	}
	return tpf.Pattern{S: pos[0], P: pos[1], O: pos[2]}, nil
}
