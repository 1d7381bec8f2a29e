package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/turtle"
)

// opKind is the route a request exercises; latencies and attempted /
// succeeded / failed counts are kept per kind.
type opKind int

const (
	opNode opKind = iota
	opFragment
	opUpdate
	numKinds
)

var kindNames = [numKinds]string{"node", "fragment", "update"}

// request is one pre-built HTTP exchange. The generator only ever writes
// raw and reads the reply; the remaining fields are the same request in the
// form the in-process reference and the traced replay take it.
type request struct {
	kind  opKind
	path  string // request target, for error messages and the smoke test
	raw   []byte // the complete HTTP/1.1 request
	focus rdf.Term
	shape string // /fragment: definition name suffix, "" for the whole schema
	body  string // /update: the N-Triples delta
	del   bool   // /update: op=delete
	// check marks the requests whose body is compared with want, the sha256
	// of the reference extraction's N-Triples.
	check bool
	want  [32]byte
}

// sizes scales the four workloads. ISSUE.md sized them for 30–50 s of
// traffic each; the driver's budget (92 runs in under an hour) leaves about
// ten seconds of measurement per run, so a round is sized to take between
// half a second and two, and the timed phase repeats whole rounds until
// -seconds have passed. Tests run the same code on a few hundred individuals.
type sizes struct {
	tyrol         int // node-hot, update-mix: individuals of the Tyrol graph
	scan          int // shape-scan: individuals; a sweep of the 57 shapes per client is one round
	scanCache     int // shape-scan: -cache in triples, about a twentieth of what one sweep inserts
	hubPapers     int // hub-path: papers of the coauthor corpus
	population    int // focus nodes the Zipf draw ranges over; their entries fit the default cache
	nodesPerRound int // node-hot: requests per client and round
}

var fullSize = sizes{
	tyrol:         10000, // ≈72K triples, one giant typed component
	scan:          1500,
	scanCache:     15000, // as 100000 is to 10000 individuals
	hubPapers:     250,   // one cold distance-3 fragment in tens of milliseconds
	population:    2000,
	nodesPerRound: 2000,
}

const (
	hubFromYear     = 2014
	zipfS           = 1.1
	zipfV           = 10 // flattens the head: the hottest node draws 2 % of the requests, not 17 %
	updatesPerRound = 2  // one adds a Review, the other deletes it again
	readsPerUpdate  = 20
	hubPerRound     = 10
	checkEveryNode  = 100 // node-hot compares one /node body in a hundred
	checkEveryRead  = 20  // update-mix: one read after every update
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name    string
	why     string
	primary opKind // the kind p50_ms and p90_ms describe
	clients int
	cache   func(sz sizes) int // the server's -cache flag
	build   func(w *workload, sz sizes, seed int64) (*inputs, error)
}

func defaultCache(sizes) int { return 1 << 20 }

// inputs is everything generated from the seed: the two files the server
// is started on, and the traffic.
type inputs struct {
	g         *rdfgraph.Graph // the generated data graph; the reference store takes it over
	data      string          // N-Triples, the server's -data file
	shapes    string          // SHACL Turtle, the server's -shapes file
	h         *schema.Schema  // shapes parsed back: the schema the server serves
	warmup    []request       // sent once, untimed, on one connection
	round     [][]request     // one list per client; the timed phase repeats it
	subscribe string          // shape the SSE connection subscribes to, "" for none
}

var workloads = []*workload{
	{
		name:    "node-hot",
		why:     "Zipf /node reads that all hit the neighborhood cache: middleware, net/http, ID decode and N-Triples writing do the work, extraction almost none",
		primary: opNode, clients: 2, cache: defaultCache, build: buildNodeHot,
	},
	{
		name:    "shape-scan",
		why:     "per-shape /fragment sweeps whose working set is twenty times the cache budget: plan execution, graph reads, merge and serialization dominate",
		primary: opFragment, clients: 2, cache: func(sz sizes) int { return sz.scanCache }, build: buildShapeScan,
	},
	{
		name:    "update-mix",
		why:     "POST /update on the giant component with an SSE subscriber, each followed by 20 /node reads on the same store and cache: the write path beside reads",
		primary: opNode, clients: 1, cache: defaultCache, build: buildUpdateMix,
	},
	{
		name:    "hub-path",
		why:     "the paper's Fig 3 distance-3 hub shape served cold with the cache off: product-automaton path tracing is nearly all the time",
		primary: opFragment, clients: 1, cache: func(sizes) int { return -1 }, build: buildHubPath,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// trafficRNG seeds the request draws apart from the data generator, which
// consumes -seed itself.
func trafficRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

func newInputs(g *rdfgraph.Graph, h *schema.Schema) (*inputs, error) {
	shapes, err := shaclsyn.Format(h)
	if err != nil {
		return nil, fmt.Errorf("formatting shapes: %w", err)
	}
	served, err := shaclsyn.ParseSchema(shapes)
	if err != nil {
		return nil, fmt.Errorf("parsing the shapes file back: %w", err)
	}
	return &inputs{g: g, data: turtle.FormatGraph(g), shapes: shapes, h: served}, nil
}

func tyrolInputs(individuals int, seed int64) (*inputs, error) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: seed})
	return newInputs(g, datagen.BenchmarkSchema())
}

// typedIndividuals picks n subjects of rdf:type triples by a seeded shuffle:
// the population /node requests draw their focus from.
func typedIndividuals(g *rdfgraph.Graph, n int, rng *rand.Rand) []rdf.Term {
	typ := g.LookupTerm(rdf.NewIRI(rdf.RDFType))
	seen := map[rdfgraph.ID]bool{}
	var out []rdf.Term
	for _, e := range g.EdgesByPredicate(typ) {
		if !seen[e.S] {
			seen[e.S] = true
			out = append(out, g.Term(e.S))
		}
	}
	sort.Slice(out, func(i, j int) bool { return rdf.Compare(out[i], out[j]) < 0 })
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(n, len(out))]
}

// zipfNodes draws n focus nodes from pop, rank k with probability
// proportional to (zipfV+k)^-zipfS.
func zipfNodes(pop []rdf.Term, n int, rng *rand.Rand) []request {
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(len(pop)-1))
	out := make([]request, n)
	for i := range out {
		out[i] = nodeRequest(pop[z.Uint64()])
	}
	return out
}

func nodeRequest(v rdf.Term) request {
	r := request{kind: opNode, path: "/node?iri=" + url.QueryEscape(v.String()), focus: v}
	r.raw = []byte("GET " + r.path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
	return r
}

func fragmentRequest(shape string) request {
	r := request{kind: opFragment, path: "/fragment", shape: shape, check: true}
	if shape != "" {
		r.path += "?shape=" + url.QueryEscape(shape)
	}
	r.raw = []byte("GET " + r.path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
	return r
}

func updateRequest(triples []rdf.Triple, del bool) request {
	r := request{kind: opUpdate, path: "/update", body: turtle.FormatNTriples(triples), del: del}
	if del {
		r.path += "?op=delete"
	}
	r.raw = []byte("POST " + r.path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/n-triples\r\nContent-Length: " +
		strconv.Itoa(len(r.body)) + "\r\n\r\n" + r.body)
	return r
}

func buildNodeHot(w *workload, sz sizes, seed int64) (*inputs, error) {
	in, err := tyrolInputs(sz.tyrol, seed)
	if err != nil {
		return nil, err
	}
	rng := trafficRNG(seed, 1)
	pop := typedIndividuals(in.g, sz.population, rng)
	// One untimed request per population node fills the cache, so every
	// timed request is a hit whatever the draw.
	for _, v := range pop {
		in.warmup = append(in.warmup, nodeRequest(v))
	}
	for c := 0; c < w.clients; c++ {
		list := zipfNodes(pop, sz.nodesPerRound, rng)
		for i := range list {
			list[i].check = i%checkEveryNode == 0
		}
		in.round = append(in.round, list)
	}
	return in, nil
}

func buildShapeScan(w *workload, sz sizes, seed int64) (*inputs, error) {
	in, err := tyrolInputs(sz.scan, seed)
	if err != nil {
		return nil, err
	}
	rng := trafficRNG(seed, 2)
	n := len(datagen.BenchmarkShapes())
	for c := 0; c < w.clients; c++ {
		var list []request
		for _, i := range rng.Perm(n) {
			list = append(list, fragmentRequest(fmt.Sprintf("S%02d", i+1)))
		}
		in.round = append(in.round, list)
	}
	in.warmup = in.round[0]
	return in, nil
}

// reviewDelta is the five triples of one new Review wired into the giant
// component: type, rating, author, text, and a review edge from a lodging.
func reviewDelta(i, individuals int, rng *rand.Rand) []rdf.Triple {
	node := func(kind string, k int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("%s%s/%d", datagen.NS, kind, k))
	}
	r := rdf.NewIRI(fmt.Sprintf("%sreview/bench-%d", datagen.NS, i))
	return []rdf.Triple{
		rdf.T(r, rdf.NewIRI(rdf.RDFType), datagen.ClassReview),
		rdf.T(r, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(int64(1+rng.Intn(5)))),
		rdf.T(r, rdf.NewIRI(datagen.PropAuthor), node("person", rng.Intn(individuals*15/100))),
		rdf.T(r, rdf.NewIRI(datagen.PropText), rdf.NewLangString(fmt.Sprintf("bench review %d", i), "en")),
		rdf.T(node("lodging", rng.Intn(individuals*20/100)), rdf.NewIRI(datagen.PropReview), r),
	}
}

func buildUpdateMix(w *workload, sz sizes, seed int64) (*inputs, error) {
	in, err := tyrolInputs(sz.tyrol, seed)
	if err != nil {
		return nil, err
	}
	rng := trafficRNG(seed, 3)
	pop := typedIndividuals(in.g, sz.population, rng)
	in.warmup = zipfNodes(pop, sz.nodesPerRound, rng)
	var deltas [][]rdf.Triple
	for i := 0; i < updatesPerRound/2; i++ {
		deltas = append(deltas, reviewDelta(i, sz.tyrol, rng))
	}
	var list []request
	for i := 0; i < updatesPerRound; i++ {
		list = append(list, updateRequest(deltas[i%len(deltas)], i >= len(deltas)))
		reads := zipfNodes(pop, readsPerUpdate, rng)
		for j := range reads {
			reads[j].check = j%checkEveryRead == 0
		}
		list = append(list, reads...)
	}
	in.round = [][]request{list}
	// S51 asks that every review is referenced, so each added or deleted
	// Review moves its fragment and the subscriber sees one delta per update.
	in.subscribe = "S51"
	return in, nil
}

const hubShapeName = datagen.NS + "shape/Hub"

// relabel renames every author and paper of a coauthor graph by a seeded
// permutation of their numbers; the hub keeps its name.
func relabel(g *rdfgraph.Graph, rng *rand.Rand) *rdfgraph.Graph {
	renamed := map[rdf.Term]rdf.Term{}
	for _, kind := range []string{"author/", "paper/"} {
		var old []rdf.Term
		g.Nodes(func(n rdfgraph.ID) {
			if t := g.Term(n); t != datagen.HubAuthor && strings.HasPrefix(t.Value, datagen.NS+kind) {
				old = append(old, t)
			}
		})
		sort.Slice(old, func(i, j int) bool { return rdf.Compare(old[i], old[j]) < 0 })
		for i, k := range rng.Perm(len(old)) {
			renamed[old[i]] = rdf.NewIRI(fmt.Sprintf("%s%s%d", datagen.NS, kind, k))
		}
	}
	name := func(t rdf.Term) rdf.Term {
		if r, ok := renamed[t]; ok {
			return r
		}
		return t
	}
	out := rdfgraph.New()
	for _, t := range g.Triples() {
		out.Add(rdf.T(name(t.S), t.P, name(t.O)))
	}
	return out
}

// hubCorpusSeed fixes the structure of hub-path's corpus. What the
// distance-3 shape costs depends on the tail of the coauthor degrees, and
// varies by a fifth between corpora of this size: drawn from -seed, that
// would drown any change in the server. -seed renames the authors and
// papers instead, so dictionary, hash and iteration orders differ from seed
// to seed while the work stays the same.
const hubCorpusSeed = 1

func buildHubPath(w *workload, sz sizes, seed int64) (*inputs, error) {
	corpus := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: sz.hubPapers, Seed: hubCorpusSeed})
	g := relabel(corpus.Graph(hubFromYear), trafficRNG(seed, 4))
	h, err := schema.New(schema.Definition{
		Name:   rdf.NewIRI(hubShapeName),
		Shape:  datagen.HubDistance3Shape(),
		Target: schema.TargetObjectsOf(datagen.PropAuthoredBy),
	})
	if err != nil {
		return nil, err
	}
	in, err := newInputs(g, h)
	if err != nil {
		return nil, err
	}
	var list []request
	for i := 0; i < hubPerRound; i++ {
		list = append(list, fragmentRequest("Hub"))
	}
	in.round = [][]request{list}
	in.warmup = list[:2]
	return in, nil
}
