// Package datagen generates the synthetic workloads standing in for the
// paper's evaluation assets (see DESIGN.md, "Substitutions"): a
// schema.org-flavoured tourism knowledge graph replacing the Tyrolean
// Knowledge Graph, the 57 benchmark shapes replacing the Schaffenrath et
// al. suite, a preferential-attachment coauthorship graph replacing DBLP,
// and a 46-query benchmark mix replacing BSBM/WatDiv.
package datagen

import (
	"fmt"
	"math/rand"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// NS is the namespace of the synthetic tourism vocabulary.
const NS = "http://tyrol.example/"

// Vocabulary IRIs.
var (
	ClassEvent        = rdf.NewIRI(NS + "Event")
	ClassLodging      = rdf.NewIRI(NS + "Lodging")
	ClassHotel        = rdf.NewIRI(NS + "Hotel")
	ClassHostel       = rdf.NewIRI(NS + "Hostel")
	ClassPlace        = rdf.NewIRI(NS + "Place")
	ClassPerson       = rdf.NewIRI(NS + "Person")
	ClassOrganization = rdf.NewIRI(NS + "Organization")
	ClassReview       = rdf.NewIRI(NS + "Review")

	PropName       = NS + "name"
	PropStartDate  = NS + "startDate"
	PropEndDate    = NS + "endDate"
	PropOrganizer  = NS + "organizer"
	PropLocation   = NS + "location"
	PropPrice      = NS + "price"
	PropCapacity   = NS + "capacity"
	PropURL        = NS + "url"
	PropRating     = NS + "rating"
	PropCheckin    = NS + "checkinHour"
	PropCheckout   = NS + "checkoutHour"
	PropAmenity    = NS + "amenity"
	PropOwner      = NS + "owner"
	PropReview     = NS + "review"
	PropPostalCode = NS + "postalCode"
	PropInDistrict = NS + "inDistrict"
	PropEmail      = NS + "email"
	PropWorksFor   = NS + "worksFor"
	PropKnows      = NS + "knows"
	PropLegalName  = NS + "legalName"
	PropSubOrgOf   = NS + "subOrganizationOf"
	PropAuthor     = NS + "author"
	PropText       = NS + "text"
	PropAlias      = NS + "alias"
)

// TyrolConfig scales the synthetic tourism graph. Individuals is the number
// of entity nodes; the triple count is roughly 7× that, mirroring the
// density of the paper's induced subgraphs (50K individuals ≈ 1.5M triples
// there; defaults here are laptop-scale).
type TyrolConfig struct {
	Individuals int
	Seed        int64
	// DirtyRate is the fraction of entities given constraint-violating
	// data, so validation reports and why-not provenance are non-trivial.
	DirtyRate float64
}

// Tyrol generates the synthetic tourism knowledge graph.
func Tyrol(cfg TyrolConfig) *rdfgraph.Graph {
	g := rdfgraph.New()
	TyrolStream(cfg, func(t rdf.Triple) { g.Add(t) })
	return g
}

// TriplesPerIndividual is the approximate triple density of the generated
// graph: IndividualsForTriples sizes a target triple count with it. The
// exact count wobbles with the seed (amenity/review/knows fan-outs are
// random), so treat derived sizes as ±2%; measured 7.24–7.25 at seed 1.
const TriplesPerIndividual = 7.25

// IndividualsForTriples returns the Individuals setting that generates
// approximately the given number of triples — the -scale knob: callers ask
// for a triple budget ("10M") instead of reverse-engineering entity counts.
func IndividualsForTriples(triples int) int {
	n := int(float64(triples) / TriplesPerIndividual)
	if n < 1 {
		n = 1
	}
	return n
}

// TyrolStream generates the same triple sequence as Tyrol but emits each
// triple to the callback instead of materializing a graph, so arbitrarily
// large graphs can be streamed straight into rdfgraph.New's indexes
// without an intermediate triple slice: peak memory is the final graph
// size. Duplicate triples may be emitted; graph-building
// consumers dedupe by construction. The emission order and RNG consumption
// are exactly Tyrol's, so a given (Individuals, Seed, DirtyRate) yields an
// identical graph through either entry point.
func TyrolStream(cfg TyrolConfig, emit func(rdf.Triple)) {
	if cfg.Individuals <= 0 {
		cfg.Individuals = 1000
	}
	if cfg.DirtyRate == 0 {
		cfg.DirtyRate = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	add := func(t rdf.Triple) { emit(t) }
	typ := rdf.NewIRI(rdf.RDFType)

	// Static class hierarchy.
	sub := rdf.NewIRI(rdf.RDFSSubClassOf)
	add(rdf.T(ClassHotel, sub, ClassLodging))
	add(rdf.T(ClassHostel, sub, ClassLodging))

	n := cfg.Individuals
	counts := map[string]int{
		"event":   n * 30 / 100,
		"lodging": n * 20 / 100,
		"place":   n * 15 / 100,
		"person":  n * 15 / 100,
		"org":     n * 8 / 100,
		"review":  n * 12 / 100,
	}
	node := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("%s%s/%d", NS, kind, i))
	}
	pick := func(kind string) rdf.Term {
		return node(kind, rng.Intn(max(1, counts[kind])))
	}
	dirty := func() bool { return rng.Float64() < cfg.DirtyRate }
	langName := func(s rdf.Term, base string, i int) {
		name := fmt.Sprintf("%s %d", base, i)
		switch {
		case dirty():
			// Duplicate language tag: violates uniqueLang.
			add(rdf.T(s, rdf.NewIRI(PropName), rdf.NewLangString(name, "de")))
			add(rdf.T(s, rdf.NewIRI(PropName), rdf.NewLangString(name+" alt", "de")))
		case dirty():
			// Missing entirely: violates minCount.
		default:
			add(rdf.T(s, rdf.NewIRI(PropName), rdf.NewLangString(name, "de")))
			add(rdf.T(s, rdf.NewIRI(PropName), rdf.NewLangString(name, "en")))
		}
	}

	// Places form a district tree, exercised by zeroOrMore paths.
	for i := 0; i < counts["place"]; i++ {
		s := node("place", i)
		add(rdf.T(s, typ, ClassPlace))
		langName(s, "Place", i)
		code := fmt.Sprintf("%04d", 6000+rng.Intn(999))
		if dirty() {
			code = "A" + code // violates the postal code pattern
		}
		add(rdf.T(s, rdf.NewIRI(PropPostalCode), rdf.NewString(code)))
		if i > 0 {
			add(rdf.T(s, rdf.NewIRI(PropInDistrict), node("place", rng.Intn(i))))
		}
	}

	for i := 0; i < counts["org"]; i++ {
		s := node("org", i)
		add(rdf.T(s, typ, ClassOrganization))
		langName(s, "Org", i)
		legal := rdf.NewString(fmt.Sprintf("Org %d GmbH", i))
		add(rdf.T(s, rdf.NewIRI(PropLegalName), legal))
		if rng.Float64() < 0.5 {
			// alias equals legalName for equals-constraints (dirty: differs).
			if dirty() {
				add(rdf.T(s, rdf.NewIRI(PropAlias), rdf.NewString("Wrong Alias")))
			} else {
				add(rdf.T(s, rdf.NewIRI(PropAlias), legal))
			}
		}
		if i > 0 && rng.Float64() < 0.6 {
			add(rdf.T(s, rdf.NewIRI(PropSubOrgOf), node("org", rng.Intn(i))))
		}
	}

	for i := 0; i < counts["person"]; i++ {
		s := node("person", i)
		add(rdf.T(s, typ, ClassPerson))
		langName(s, "Person", i)
		email := fmt.Sprintf("person%d@example.org", i)
		if dirty() {
			email = "not-an-email"
		}
		add(rdf.T(s, rdf.NewIRI(PropEmail), rdf.NewString(email)))
		if counts["org"] > 0 && rng.Float64() < 0.7 {
			add(rdf.T(s, rdf.NewIRI(PropWorksFor), pick("org")))
		}
		for k := rng.Intn(3); k > 0; k-- {
			add(rdf.T(s, rdf.NewIRI(PropKnows), pick("person")))
		}
	}

	for i := 0; i < counts["review"]; i++ {
		s := node("review", i)
		add(rdf.T(s, typ, ClassReview))
		rating := int64(1 + rng.Intn(5))
		if dirty() {
			rating = 9 // out of range
		}
		add(rdf.T(s, rdf.NewIRI(PropRating), rdf.NewInteger(rating)))
		if counts["person"] > 0 {
			add(rdf.T(s, rdf.NewIRI(PropAuthor), pick("person")))
		}
		add(rdf.T(s, rdf.NewIRI(PropText),
			rdf.NewLangString(fmt.Sprintf("review text %d", i), []string{"de", "en", "it"}[rng.Intn(3)])))
	}

	for i := 0; i < counts["lodging"]; i++ {
		s := node("lodging", i)
		if rng.Float64() < 0.6 {
			add(rdf.T(s, typ, ClassHotel))
		} else {
			add(rdf.T(s, typ, ClassHostel))
		}
		langName(s, "Lodging", i)
		if counts["place"] > 0 {
			add(rdf.T(s, rdf.NewIRI(PropLocation), pick("place")))
		}
		in, out := int64(10+rng.Intn(5)), int64(15+rng.Intn(8))
		if dirty() {
			in, out = out+1, in // checkin after checkout: violates lessThan
		}
		add(rdf.T(s, rdf.NewIRI(PropCheckin), rdf.NewInteger(in)))
		add(rdf.T(s, rdf.NewIRI(PropCheckout), rdf.NewInteger(out)))
		for k := rng.Intn(3); k > 0; k-- {
			add(rdf.T(s, rdf.NewIRI(PropAmenity),
				rdf.NewString([]string{"wifi", "parking", "sauna", "pool"}[rng.Intn(4)])))
		}
		if counts["person"] > 0 {
			add(rdf.T(s, rdf.NewIRI(PropOwner), pick("person")))
		}
		for k := rng.Intn(4); k > 0; k-- {
			add(rdf.T(s, rdf.NewIRI(PropReview), pick("review")))
		}
	}

	for i := 0; i < counts["event"]; i++ {
		s := node("event", i)
		add(rdf.T(s, typ, ClassEvent))
		langName(s, "Event", i)
		day := 1 + rng.Intn(27)
		month := 1 + rng.Intn(12)
		start := fmt.Sprintf("2022-%02d-%02dT10:00:00Z", month, day)
		end := fmt.Sprintf("2022-%02d-%02dT18:00:00Z", month, day)
		if dirty() {
			start, end = end, start // event ends before it starts
		}
		add(rdf.T(s, rdf.NewIRI(PropStartDate), rdf.NewTypedLiteral(start, rdf.XSDDateTime)))
		add(rdf.T(s, rdf.NewIRI(PropEndDate), rdf.NewTypedLiteral(end, rdf.XSDDateTime)))
		if counts["org"] > 0 && rng.Float64() < 0.85 {
			add(rdf.T(s, rdf.NewIRI(PropOrganizer), pick("org")))
		}
		if counts["place"] > 0 {
			add(rdf.T(s, rdf.NewIRI(PropLocation), pick("place")))
		}
		price := float64(rng.Intn(5000)) / 10
		if dirty() {
			price = -5
		}
		add(rdf.T(s, rdf.NewIRI(PropPrice), rdf.NewDecimal(price)))
		add(rdf.T(s, rdf.NewIRI(PropCapacity), rdf.NewInteger(int64(10+rng.Intn(5000)))))
		url := fmt.Sprintf("https://tyrol.example/events/%d", i)
		if dirty() {
			url = "no scheme at all"
		}
		add(rdf.T(s, rdf.NewIRI(PropURL), rdf.NewString(url)))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
