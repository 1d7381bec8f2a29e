package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const testData = `
@prefix ex: <http://x/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:p1 rdf:type ex:Paper ; ex:author ex:bob .
ex:p2 rdf:type ex:Paper ; ex:author ex:anne .
ex:bob rdf:type ex:Student .
ex:anne rdf:type ex:Professor .
`

const testShapes = `
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://x/> .
ex:WorkshopShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [
    sh:path ex:author ; sh:qualifiedMinCount 1 ;
    sh:qualifiedValueShape [ sh:class ex:Student ] ] .
`

// buildCLI compiles the shaclfrag binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "shaclfrag")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeInputs(t *testing.T) (dataPath, shapesPath string) {
	t.Helper()
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "data.ttl")
	shapesPath = filepath.Join(dir, "shapes.ttl")
	if err := os.WriteFile(dataPath, []byte(testData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shapesPath, []byte(testShapes), 0o644); err != nil {
		t.Fatal(err)
	}
	return dataPath, shapesPath
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	data, shapes := writeInputs(t)

	run := func(wantExit int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("%v: exit %d, want %d\n%s", args, exit, wantExit, out)
		}
		return string(out)
	}

	// validate: the graph has one violation (p2), so exit code 1.
	out := run(1, "validate", "-data", data, "-shapes", shapes)
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "conforms: false") {
		t.Errorf("validate output: %s", out)
	}

	// fragment via schema.
	out = run(0, "fragment", "-data", data, "-shapes", shapes)
	if !strings.Contains(out, "Student") || strings.Contains(out, "Professor") {
		t.Errorf("fragment output: %s", out)
	}

	// fragment via the SPARQL strategy must agree.
	sparqlOut := run(0, "fragment", "-data", data, "-shapes", shapes, "-strategy", "sparql")
	if sparqlOut != out {
		t.Errorf("strategies disagree:\n%s\nvs\n%s", out, sparqlOut)
	}

	// Several shards must agree too; the removed -backend and -sparql
	// flags are usage errors and a negative shard count is refused.
	if sharded := run(0, "fragment", "-data", data, "-shapes", shapes, "-shards", "4"); sharded != out {
		t.Errorf("shard counts disagree:\n%s\nvs\n%s", out, sharded)
	}
	run(2, "fragment", "-data", data, "-shapes", shapes, "-backend", "sharded")
	run(2, "fragment", "-data", data, "-shapes", shapes, "-sparql")
	run(1, "fragment", "-data", data, "-shapes", shapes, "-shards", "-1")

	// fragment via an ad-hoc request shape.
	out = run(0, "fragment", "-data", data, "-request", ">=1 author.top", "-base", "http://x/")
	if strings.Count(out, "author") != 2 {
		t.Errorf("request fragment: %s", out)
	}

	// neighborhood of the conforming paper.
	out = run(0, "neighborhood", "-data", data, "-shapes", shapes,
		"-node", "http://x/p1", "-shape", "WorkshopShape")
	if !strings.Contains(out, "conforms: true") || !strings.Contains(out, "bob") {
		t.Errorf("neighborhood output: %s", out)
	}

	// whynot of the violating paper.
	out = run(0, "whynot", "-data", data, "-shapes", shapes,
		"-node", "http://x/p2", "-shape", "WorkshopShape")
	if !strings.Contains(out, "conforms: false") {
		t.Errorf("whynot output: %s", out)
	}

	// translate renders SPARQL.
	out = run(0, "translate", "-shapes", shapes)
	if !strings.Contains(out, "SELECT ?s ?p ?o") {
		t.Errorf("translate output: %s", out)
	}

	// tpf evaluation plus request shape.
	out = run(0, "tpf", "-data", data, "-pattern", "?x <http://x/author> ?y")
	if !strings.Contains(out, "# request shape: ≥1") || strings.Count(out, "author") < 3 {
		t.Errorf("tpf output: %s", out)
	}

	// error handling: missing files and bad patterns.
	run(1, "validate", "-data", "/nonexistent.ttl", "-shapes", shapes)
	run(1, "tpf", "-data", data, "-pattern", "only two")
	run(2, "nonsense")
}

// TestCLIExplainGolden locks the annotated-N-Triples and JSON renderings
// of `shaclfrag explain` against the committed tourism example. The golden
// files double as the walkthrough output quoted in the README, so a
// rendering change must update both.
func TestCLIExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	data := filepath.Join("..", "..", "examples", "data", "tourism.ttl")
	shapes := filepath.Join("..", "..", "examples", "shapes", "tourism.ttl")

	cases := []struct {
		golden string
		args   []string
	}{
		{"alpenhof-hotel.golden", []string{
			"-node", "http://tourism.example/alpenhof", "-shape", "HotelShape"}},
		{"grandhotel-hotel.golden", []string{
			"-node", "http://tourism.example/grandhotel", "-shape", "HotelShape"}},
		{"seehof.json.golden", []string{
			"-node", "http://tourism.example/seehof", "-json"}},
	}
	for _, tc := range cases {
		args := append([]string{"explain", "-data", data, "-shapes", shapes}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "examples", "explain", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("%s: output drifted from golden\n--- got ---\n%s--- want ---\n%s", tc.golden, out, want)
		}
	}
}

func TestCLIExplainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	data, shapes := writeInputs(t)

	run := func(wantExit int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("%v: exit %d, want %d\n%s", args, exit, wantExit, out)
		}
		return string(out)
	}

	// The conforming paper: every neighborhood triple carries a rendered
	// justification comment.
	out := run(0, "explain", "-data", data, "-shapes", shapes,
		"-node", "http://x/p1", "-shape", "WorkshopShape")
	if !strings.Contains(out, "conforms: true") || !strings.Contains(out, "⇐") {
		t.Errorf("explain output missing justifications: %s", out)
	}
	if !strings.Contains(out, "bob") || strings.Contains(out, "anne") {
		t.Errorf("explain must cover exactly the p1 neighborhood: %s", out)
	}

	// Explaining a shape against itself leaves no diff.
	out = run(0, "explain", "-data", data, "-shapes", shapes,
		"-node", "http://x/p1", "-shape", "WorkshopShape", "-diff", "WorkshopShape")
	if !strings.Contains(out, "0 explained triples") {
		t.Errorf("self-diff should be empty: %s", out)
	}

	// Error paths: missing node, unknown shapes.
	run(1, "explain", "-data", data, "-shapes", shapes)
	run(1, "explain", "-data", data, "-shapes", shapes, "-node", "http://x/p1", "-shape", "Nope")
	run(1, "explain", "-data", data, "-shapes", shapes, "-node", "http://x/p1", "-diff", "Nope")
}

func TestParsePatternUnit(t *testing.T) {
	p, err := parsePattern(`?x <http://x/p> "lit"`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.S.IsVar() || p.P.IsVar() || p.O.IsVar() {
		t.Errorf("pattern positions wrong: %+v", p)
	}
	if _, err := parsePattern("?x ?y"); err == nil {
		t.Error("two components must fail")
	}
	if _, err := parsePattern("?x [bad] ?y"); err == nil {
		t.Error("unparsable component must fail")
	}
}

func TestCLILint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.ttl")
	if err := os.WriteFile(broken, []byte(`
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://x/> .
ex:BadShape a sh:NodeShape ;
  sh:targetClass ex:Thing ;
  sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 1 ] .
`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, clean := writeInputs(t)

	run := func(wantExit int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("%v: exit %d, want %d\n%s", args, exit, wantExit, out)
		}
		return string(out)
	}

	// A clean schema: no findings, zero summary, exit 0.
	out := run(0, "lint", clean)
	if !strings.Contains(out, "0 error(s), 0 warning(s)") {
		t.Errorf("clean lint output: %s", out)
	}

	// A broken schema: SL-coded findings and exit 1.
	out = run(1, "lint", broken)
	if !strings.Contains(out, "SL003") || !strings.Contains(out, "SL001") {
		t.Errorf("broken lint output should carry SL-codes: %s", out)
	}

	// -q prints summaries only; errors still fail the run.
	out = run(1, "lint", "-q", broken)
	if strings.Contains(out, "SL003") || !strings.Contains(out, "error(s)") {
		t.Errorf("-q output: %s", out)
	}

	// Multiple files: one bad file fails the whole run, every file gets a
	// summary line. The -shapes flag form is accepted too.
	out = run(1, "lint", "-shapes", clean, broken)
	if strings.Count(out, "error(s)") != 2 {
		t.Errorf("per-file summaries missing: %s", out)
	}

	// No inputs or unreadable inputs are usage/IO errors.
	run(1, "lint")
	run(1, "lint", filepath.Join(dir, "nope.ttl"))

	// The committed corpus: every broken example fails, every clean
	// example passes — the CLI half of the golden tests.
	lintDir := filepath.Join("..", "..", "examples", "lint")
	ttl, err := filepath.Glob(filepath.Join(lintDir, "*.ttl"))
	if err != nil || len(ttl) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(ttl))
	}
	for _, f := range ttl {
		out, _ := exec.Command(bin, "lint", f).CombinedOutput()
		if !strings.Contains(string(out), "SL0") {
			t.Errorf("%s: no SL-coded findings:\n%s", f, out)
		}
	}
	clean2, err := filepath.Glob(filepath.Join("..", "..", "examples", "shapes", "*.ttl"))
	if err != nil || len(clean2) == 0 {
		t.Fatalf("clean glob: %v (%d files)", err, len(clean2))
	}
	args := append([]string{"lint"}, clean2...)
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil || strings.Contains(string(out), "SL0") {
		t.Errorf("clean examples must lint silent and exit 0: %v\n%s", err, out)
	}
}
