package fragserver

import (
	"bytes"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/turtle"
)

// congruentSchema holds two definitions that differ only in name and
// conjunct order — the containment analysis must put their request
// shapes in one equivalence class so they share cache entries.
func congruentSchema(t *testing.T) *schema.Schema {
	t.Helper()
	minName := shape.Min(1, paths.P(datagen.PropName), shape.TrueShape())
	litRating := shape.All(paths.P(datagen.PropRating), shape.NodeTestShape(shape.IsLiteral{}))
	return schema.MustNew(
		schema.Definition{
			Name:   rdf.NewIRI(datagen.NS + "shape/S1"),
			Shape:  shape.AndOf(minName, litRating),
			Target: schema.TargetClass(datagen.ClassEvent),
		},
		schema.Definition{
			Name:   rdf.NewIRI(datagen.NS + "shape/S2"),
			Shape:  shape.AndOf(litRating, minName),
			Target: schema.TargetClass(datagen.ClassEvent),
		},
	)
}

func newCongruentServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 80, Seed: 11})
	srv, err := New(Config{Graph: g, Schema: congruentSchema(t), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics output", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestNodeServedFromCongruentCacheEntries: the class table pools the two
// congruent definition shapes — the keys /node caches under — so S2's
// neighborhood is served from the entry S1's request put, byte-identical
// to what a cold server extracts for S2.
func TestNodeServedFromCongruentCacheEntries(t *testing.T) {
	srv, ts := newCongruentServer(t)
	if cl := srv.ContainmentClasses(); cl == nil || cl.Shared == 0 {
		t.Fatalf("containment classes = %+v, want shared shapes", cl)
	}

	// Find a node /fragment actually serves, so the neighborhood is
	// non-trivial. Same target, congruent shapes: the fragments coincide.
	_, frag := get(t, ts, "/fragment?shape=S1")
	if _, frag2 := get(t, ts, "/fragment?shape=S2"); frag2 != frag {
		t.Fatal("congruent definitions served different fragments")
	}
	line := strings.SplitN(frag, " ", 2)[0]
	if !strings.HasPrefix(line, "<") {
		t.Fatalf("no IRI subject in fragment: %q", frag[:min(80, len(frag))])
	}
	iri := strings.Trim(line, "<>")

	_, n1 := get(t, ts, "/node?iri="+iri+"&shape=S1")
	before := srv.cache.Stats().AliasHits
	_, n2 := get(t, ts, "/node?iri="+iri+"&shape=S2")
	if n1 != n2 {
		t.Fatal("congruent definition shapes served different node neighborhoods")
	}
	if after := srv.cache.Stats().AliasHits; after == before {
		t.Fatal("S2's /node request did not reuse S1's cached neighborhood")
	}

	_, metrics := get(t, ts, "/metrics")
	if hits := metricValue(t, metrics, "fragserver_containment_hits_total"); hits == 0 {
		t.Fatal("containment hit counter did not move")
	}
	if classes := metricValue(t, metrics, "fragserver_containment_classes"); classes == 0 {
		t.Fatal("containment class gauge missing or zero")
	}
	if shared := metricValue(t, metrics, "fragserver_containment_shared_shapes"); shared == 0 {
		t.Fatal("shared-shapes gauge missing or zero")
	}

	// Cold control: a fresh server asked only for S2 must produce the
	// same bytes the alias-served response carried.
	_, cold := newCongruentServer(t)
	if _, coldBody := get(t, cold, "/node?iri="+iri+"&shape=S2"); coldBody != n2 {
		t.Fatal("alias-served neighborhood differs from cold extraction")
	}
}

// TestSchemaOnlyWorkSurvivesUpdate pins what an effective /update leaves
// alone: every compiled program depends on the schema only and is
// pointer-identical across the epoch, the class table is the very value New
// computed, and the alias table New installed still routes S2's /node to
// S1's (new-epoch) cache entries.
func TestSchemaOnlyWorkSurvivesUpdate(t *testing.T) {
	srv, ts := newCongruentServer(t)
	classes := srv.ContainmentClasses()
	programs := srv.programs
	compiled := slices.Clone(programs.Programs)

	for i := 0; i < 2; i++ {
		event := "<" + datagen.NS + "event/new-" + strconv.Itoa(i) + ">"
		resp, body := post(t, ts, "/update", event+" a <"+datagen.ClassEvent.Value+"> ; <"+datagen.PropName+"> \"new\"@en .")
		if resp.StatusCode != 200 || !strings.Contains(body, `"changed":true`) {
			t.Fatalf("POST /update: %d %s", resp.StatusCode, body)
		}
	}
	if got := srv.ContainmentClasses(); got != classes {
		t.Errorf("containment classes were rebuilt by /update: %p, was %p", got, classes)
	}
	if srv.programs != programs {
		t.Errorf("the program set was replaced by /update: %p, was %p", srv.programs, programs)
	}
	for i, p := range srv.programs.Programs {
		if p != compiled[i] {
			t.Errorf("definition %d was recompiled by /update", i)
		}
	}

	focus := rdf.NewIRI(datagen.NS + "event/new-1")
	node := func(shape string) string {
		_, body := get(t, ts, "/node?iri="+url.QueryEscape(focus.String())+"&shape="+shape)
		return body
	}
	s1 := node("S1")
	hits := srv.cache.Stats().AliasHits
	s2 := node("S2")
	if srv.cache.Stats().AliasHits == hits {
		t.Error("after the update S2's neighborhood no longer hits S1's cache entries")
	}
	want := turtle.FormatNTriples(core.NewExtractor(srv.graphNow(), srv.h).Neighborhood(focus, srv.defShapes[1]))
	if s1 != want || s2 != want {
		t.Errorf("post-update neighborhoods differ from cold AST extraction (%d, %d vs %d bytes)", len(s1), len(s2), len(want))
	}
	if !strings.Contains(want, "event/new-1") {
		t.Error("the update's event is missing from its neighborhood")
	}

	// That hit went through the table installed at load: with it taken
	// away nothing on the write path installs another, so S2 runs cold.
	srv.cache.SetAliases(nil)
	resp, body := post(t, ts, "/update", "<"+datagen.NS+"event/new-2> a <"+datagen.ClassEvent.Value+"> .")
	if resp.StatusCode != 200 || !strings.Contains(body, `"changed":true`) {
		t.Fatalf("POST /update: %d %s", resp.StatusCode, body)
	}
	hits = srv.cache.Stats().AliasHits
	node("S1")
	node("S2")
	if got := srv.cache.Stats().AliasHits; got != hits {
		t.Errorf("an /update installed an alias table: %d alias hits after the load-time table was cleared", got-hits)
	}
}

// TestContainmentClassesLoggedAtLoad: the class table is computed once, in
// New, and that is where an operator reads its size and cost — one
// structured line, no /update line repeating it.
func TestContainmentClassesLoggedAtLoad(t *testing.T) {
	var logs bytes.Buffer
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 80, Seed: 11})
	srv, err := New(Config{Graph: g, Schema: congruentSchema(t), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.ContainmentClasses()
	want := regexp.MustCompile(`msg="containment classes" classes=` + strconv.Itoa(cl.NumClasses) +
		` shared=` + strconv.Itoa(cl.Shared) + ` dur_ms=[0-9.e+-]+\n`)
	if n := len(want.FindAllString(logs.String(), -1)); n != 1 {
		t.Fatalf("%d containment-classes lines at load, want 1:\n%s", n, logs.String())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post(t, ts, "/update", "<"+datagen.NS+"event/logged> a <"+datagen.ClassEvent.Value+"> .")
	if n := strings.Count(logs.String(), "containment classes"); n != 1 {
		t.Errorf("%d containment-classes lines after an update, want 1", n)
	}
}
