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
	"unsafe"

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

// TestNodeServedFromCongruentCacheEntries: New keys both congruent
// definitions' /node neighborhoods under one representative, so S2's
// neighborhood is served from the entry S1's request put — a hit with no
// new miss — byte-identical to what a cold server extracts for S2.
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
	before := srv.cache.Stats()
	_, n2 := get(t, ts, "/node?iri="+iri+"&shape=S2")
	if n1 != n2 {
		t.Fatal("congruent definition shapes served different node neighborhoods")
	}
	if after := srv.cache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("S2's /node after S1's moved hits by %d and misses by %d, want 1 and 0",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}

	_, metrics := get(t, ts, "/metrics")
	classes := metricValue(t, metrics, "fragserver_containment_classes")
	shared := metricValue(t, metrics, "fragserver_containment_shared_shapes")
	if classes == 0 || shared == 0 {
		t.Fatalf("containment gauges: %v classes, %v shared, want both non-zero", classes, shared)
	}
	if defs := float64(srv.h.Len()); shared != defs-classes {
		t.Errorf("shared = %v, want definitions − classes = %v − %v", shared, defs, classes)
	}

	// Cold control: a fresh server asked only for S2 must produce the
	// same bytes the representative's entry carried.
	_, cold := newCongruentServer(t)
	if _, coldBody := get(t, cold, "/node?iri="+iri+"&shape=S2"); coldBody != n2 {
		t.Fatal("neighborhood served from the representative's entry differs from cold extraction")
	}
}

// TestWarmNodeLooksUpEachClassOnce: a warm unnamed /node makes one cache
// lookup per containment class, not one per definition — every one a hit
// — and its body is the cold AST union over every definition, the
// non-representatives included.
func TestWarmNodeLooksUpEachClassOnce(t *testing.T) {
	srv, ts := newCongruentServer(t)
	focus := rdf.NewIRI(datagen.NS + "event/0")
	path := "/node?iri=" + url.QueryEscape(focus.String())
	get(t, ts, path) // warm

	counters := func() (hits, misses float64) {
		_, metrics := get(t, ts, "/metrics")
		return metricValue(t, metrics, "fragserver_cache_hits_total"), metricValue(t, metrics, "fragserver_cache_misses_total")
	}
	hits, misses := counters()
	_, body := get(t, ts, path)
	hits2, misses2 := counters()
	if cl := srv.ContainmentClasses(); hits2-hits != float64(cl.NumClasses) || misses2 != misses {
		t.Fatalf("warm /node moved hits by %v and misses by %v, want %d (one per class over %d definitions) and 0",
			hits2-hits, misses2-misses, cl.NumClasses, len(cl.Rep))
	}
	if want := coldNodeBody(t, srv, focus); body != want || want == "" {
		t.Fatalf("warm /node body (%d bytes) differs from the cold union over every definition (%d bytes)", len(body), len(want))
	}
}

// TestSchemaOnlyWorkSurvivesUpdate pins what an effective /update leaves
// alone: every compiled program depends on the schema only and is
// pointer-identical across the epoch, the class table is the very value New
// computed, and so are /node's key lists, which still serve S2's /node from
// S1's (new-epoch) cache entries.
func TestSchemaOnlyWorkSurvivesUpdate(t *testing.T) {
	srv, ts := newCongruentServer(t)
	classes := srv.ContainmentClasses()
	programs := srv.programs
	compiled := slices.Clone(programs.Programs)
	keys, all := srv.nodeKeys, srv.nodeAll
	keyShapes, allShapes := slices.Clone(keys), slices.Clone(all)

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
	if unsafe.SliceData(srv.nodeKeys) != unsafe.SliceData(keys) || !slices.Equal(srv.nodeKeys, keyShapes) ||
		unsafe.SliceData(srv.nodeAll) != unsafe.SliceData(all) || !slices.Equal(srv.nodeAll, allShapes) {
		t.Error("/update rebuilt or rewrote /node's key lists")
	}

	focus := rdf.NewIRI(datagen.NS + "event/new-1")
	node := func(shape string) string {
		_, body := get(t, ts, "/node?iri="+url.QueryEscape(focus.String())+"&shape="+shape)
		return body
	}
	s1 := node("S1")
	before := srv.cache.Stats()
	s2 := node("S2")
	if after := srv.cache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("after the update S2's neighborhood no longer hits S1's cache entries: hits +%d, misses +%d",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	want := turtle.FormatNTriples(core.NewExtractor(srv.graphNow(), srv.h).Neighborhood(focus, srv.h.Definitions()[1].Shape))
	if s1 != want || s2 != want {
		t.Errorf("post-update neighborhoods differ from cold AST extraction (%d, %d vs %d bytes)", len(s1), len(s2), len(want))
	}
	if !strings.Contains(want, "event/new-1") {
		t.Error("the update's event is missing from its neighborhood")
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
