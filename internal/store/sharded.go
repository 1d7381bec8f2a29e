package store

import (
	"sort"
	"sync"
	"sync/atomic"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// ShardedGraph is an rdfgraph.Reader over N subject-partitioned shards.
// Every triple lives on exactly one shard — the one owning its subject ID
// (subject % N) — and all shards share one term dictionary, so IDs are
// comparable across shards and with every ID a caller obtained from any
// epoch of the owning store.
//
// Forward reads (Objects, PredicatesFrom, HasIDs) route to the owner
// shard. Reverse reads (Subjects, PredicatesTo) scatter across all shards,
// because the subjects pointing at an object may live anywhere; results
// found on a shard other than the queried node's own are counted as
// cross-shard resolutions. Like Graph, a ShardedGraph is mutable until
// Freeze and safe for any number of concurrent readers afterwards.
type ShardedGraph struct {
	dict   *rdfgraph.Dict
	shards []*rdfgraph.Graph
	frozen bool
	// cross counts reverse-index results resolved from a non-owner shard;
	// shared with the owning Sharded store across epochs (nil until owned).
	cross *atomic.Uint64

	// Frozen-only caches. nodeIDs/shardNodes are computed together on first
	// use; predCache memoizes merged EdgesByPredicate slices.
	nodeOnce   sync.Once
	nodeIDs    []rdfgraph.ID
	shardNodes [][]rdfgraph.ID
	predCache  sync.Map // rdfgraph.ID → []rdfgraph.Edge
}

// NewShardedGraph returns an empty mutable graph of n shards interning
// into d. Like Graph, it has a single-writer construction phase.
func NewShardedGraph(n int, d *rdfgraph.Dict) *ShardedGraph {
	sg := &ShardedGraph{dict: d, shards: make([]*rdfgraph.Graph, n)}
	for i := range sg.shards {
		sg.shards[i] = rdfgraph.NewWithDict(d)
	}
	return sg
}

// ShardOf returns the shard owning subject (or node) id.
func (sg *ShardedGraph) ShardOf(id rdfgraph.ID) int {
	return int(id) % len(sg.shards)
}

// NumShards returns the shard count.
func (sg *ShardedGraph) NumShards() int { return len(sg.shards) }

// ShardLens returns the per-shard triple counts.
func (sg *ShardedGraph) ShardLens() []int {
	out := make([]int, len(sg.shards))
	for i, sh := range sg.shards {
		out[i] = sh.Len()
	}
	return out
}

// Add interns the triple's terms and inserts it, reporting whether it was
// new. Panics (via Dict.Intern) when a frozen dictionary meets an unseen
// term, exactly like Graph.Add.
func (sg *ShardedGraph) Add(t rdf.Triple) bool {
	s := sg.dict.Intern(t.S)
	p := sg.dict.Intern(t.P)
	o := sg.dict.Intern(t.O)
	return sg.AddIDs(s, p, o)
}

// AddIDs inserts a dictionary-encoded triple into its subject's shard.
func (sg *ShardedGraph) AddIDs(s, p, o rdfgraph.ID) bool {
	return sg.shards[sg.ShardOf(s)].AddIDs(s, p, o)
}

// RemoveIDs deletes a dictionary-encoded triple from its subject's shard.
func (sg *ShardedGraph) RemoveIDs(s, p, o rdfgraph.ID) bool {
	return sg.shards[sg.ShardOf(s)].RemoveIDs(s, p, o)
}

// Freeze marks every shard and the shared dictionary immutable.
func (sg *ShardedGraph) Freeze() {
	for _, sh := range sg.shards {
		sh.Freeze()
	}
	sg.frozen = true
}

// cloneCOW returns a mutable copy-on-write clone: one dictionary overlay
// shared by all shard clones, so a delta's new terms get exactly one ID no
// matter which shard their triples land in.
func (sg *ShardedGraph) cloneCOW() *ShardedGraph {
	nd := sg.dict.Extend()
	out := &ShardedGraph{
		dict:   nd,
		shards: make([]*rdfgraph.Graph, len(sg.shards)),
		cross:  sg.cross,
	}
	for i, sh := range sg.shards {
		out.shards[i] = sh.CloneCOWWith(nd)
	}
	return out
}

// Dict implements rdfgraph.Reader.
func (sg *ShardedGraph) Dict() *rdfgraph.Dict { return sg.dict }

// Len implements rdfgraph.Reader.
func (sg *ShardedGraph) Len() int {
	n := 0
	for _, sh := range sg.shards {
		n += sh.Len()
	}
	return n
}

// Frozen implements rdfgraph.Reader.
func (sg *ShardedGraph) Frozen() bool { return sg.frozen }

// Term implements rdfgraph.Reader.
func (sg *ShardedGraph) Term(id rdfgraph.ID) rdf.Term { return sg.dict.Term(id) }

// TermID implements rdfgraph.Reader.
func (sg *ShardedGraph) TermID(t rdf.Term) rdfgraph.ID { return sg.dict.Intern(t) }

// LookupTerm implements rdfgraph.Reader.
func (sg *ShardedGraph) LookupTerm(t rdf.Term) rdfgraph.ID { return sg.dict.Lookup(t) }

// Has implements rdfgraph.Reader.
func (sg *ShardedGraph) Has(t rdf.Triple) bool {
	s := sg.dict.Lookup(t.S)
	p := sg.dict.Lookup(t.P)
	o := sg.dict.Lookup(t.O)
	if s == rdfgraph.NoID || p == rdfgraph.NoID || o == rdfgraph.NoID {
		return false
	}
	return sg.HasIDs(s, p, o)
}

// HasIDs implements rdfgraph.Reader: a single owner-shard lookup.
func (sg *ShardedGraph) HasIDs(s, p, o rdfgraph.ID) bool {
	return sg.shards[sg.ShardOf(s)].HasIDs(s, p, o)
}

// Objects implements rdfgraph.Reader: a single owner-shard lookup.
func (sg *ShardedGraph) Objects(s, p rdfgraph.ID, fn func(o rdfgraph.ID)) {
	sg.shards[sg.ShardOf(s)].Objects(s, p, fn)
}

// Subjects implements rdfgraph.Reader: a scatter over all shards, since
// the subjects pointing at o may live anywhere.
func (sg *ShardedGraph) Subjects(p, o rdfgraph.ID, fn func(s rdfgraph.ID)) {
	home := sg.ShardOf(o)
	var cross uint64
	for i, sh := range sg.shards {
		remote := i != home
		sh.Subjects(p, o, func(s rdfgraph.ID) {
			if remote {
				cross++
			}
			fn(s)
		})
	}
	sg.countCross(cross)
}

// PredicatesFrom implements rdfgraph.Reader: a single owner-shard lookup.
func (sg *ShardedGraph) PredicatesFrom(s rdfgraph.ID, fn func(p, o rdfgraph.ID)) {
	sg.shards[sg.ShardOf(s)].PredicatesFrom(s, fn)
}

// PredicatesTo implements rdfgraph.Reader: a scatter over all shards.
func (sg *ShardedGraph) PredicatesTo(o rdfgraph.ID, fn func(s, p rdfgraph.ID)) {
	home := sg.ShardOf(o)
	var cross uint64
	for i, sh := range sg.shards {
		remote := i != home
		sh.PredicatesTo(o, func(s, p rdfgraph.ID) {
			if remote {
				cross++
			}
			fn(s, p)
		})
	}
	sg.countCross(cross)
}

// countCross batches cross-shard resolutions into the shared counter: one
// atomic add per scatter, not per result.
func (sg *ShardedGraph) countCross(n uint64) {
	if n != 0 && sg.cross != nil {
		sg.cross.Add(n)
	}
}

// EdgesByPredicate implements rdfgraph.Reader, concatenating the per-shard
// edge lists. Merged slices are memoized once the graph is frozen.
func (sg *ShardedGraph) EdgesByPredicate(p rdfgraph.ID) []rdfgraph.Edge {
	if sg.frozen {
		if v, ok := sg.predCache.Load(p); ok {
			return v.([]rdfgraph.Edge)
		}
	}
	var only []rdfgraph.Edge
	n, parts := 0, 0
	for _, sh := range sg.shards {
		if es := sh.EdgesByPredicate(p); len(es) > 0 {
			only = es
			n += len(es)
			parts++
		}
	}
	var out []rdfgraph.Edge
	if parts <= 1 {
		out = only
	} else {
		out = make([]rdfgraph.Edge, 0, n)
		for _, sh := range sg.shards {
			out = append(out, sh.EdgesByPredicate(p)...)
		}
	}
	if sg.frozen {
		sg.predCache.Store(p, out)
	}
	return out
}

// Predicates implements rdfgraph.Reader, deduplicating across shards.
func (sg *ShardedGraph) Predicates(fn func(p rdfgraph.ID)) {
	seen := make(map[rdfgraph.ID]struct{})
	for _, sh := range sg.shards {
		sh.Predicates(func(p rdfgraph.ID) {
			if _, dup := seen[p]; !dup {
				seen[p] = struct{}{}
				fn(p)
			}
		})
	}
}

// EachTriple implements rdfgraph.Reader.
func (sg *ShardedGraph) EachTriple(fn func(s, p, o rdfgraph.ID)) {
	for _, sh := range sg.shards {
		sh.EachTriple(fn)
	}
}

// Nodes implements rdfgraph.Reader: the union of the shards' node sets.
// A node appears on several shards when it is the object of triples owned
// elsewhere, so deduplication is required.
func (sg *ShardedGraph) Nodes(fn func(n rdfgraph.ID)) {
	seen := make(map[rdfgraph.ID]struct{})
	for _, sh := range sg.shards {
		sh.Nodes(func(n rdfgraph.ID) {
			if _, dup := seen[n]; !dup {
				seen[n] = struct{}{}
				fn(n)
			}
		})
	}
}

// nodeCaches builds the sorted node list and its scatter partition. Only
// meaningful once frozen; mutable graphs compute fresh on every call.
func (sg *ShardedGraph) nodeCaches() ([]rdfgraph.ID, [][]rdfgraph.ID) {
	build := func() ([]rdfgraph.ID, [][]rdfgraph.ID) {
		var ids []rdfgraph.ID
		sg.Nodes(func(n rdfgraph.ID) { ids = append(ids, n) })
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		parts := make([][]rdfgraph.ID, len(sg.shards))
		for _, id := range ids {
			k := sg.ShardOf(id)
			parts[k] = append(parts[k], id)
		}
		return ids, parts
	}
	if !sg.frozen {
		return build()
	}
	sg.nodeOnce.Do(func() {
		sg.nodeIDs, sg.shardNodes = build()
	})
	return sg.nodeIDs, sg.shardNodes
}

// NodeIDs implements rdfgraph.Reader. The result is cached once frozen —
// extraction asks for N(G) on every request, and at 10M triples the sort
// alone is too expensive to repeat. The returned slice must not be
// modified.
func (sg *ShardedGraph) NodeIDs() []rdfgraph.ID {
	ids, _ := sg.nodeCaches()
	return ids
}

// NumNodes implements rdfgraph.Reader: it counts N(G) without listing or
// sorting it, since SampleStats asks on every published epoch.
func (sg *ShardedGraph) NumNodes() int {
	n := 0
	sg.Nodes(func(rdfgraph.ID) { n++ })
	return n
}

// ShardNodeIDs returns N(G) partitioned by owner shard (node ID % N), each
// part sorted. core.FragmentParallel detects this method to scatter
// extraction work per shard; the parts are disjoint and their union is
// exactly NodeIDs. The returned slices must not be modified.
func (sg *ShardedGraph) ShardNodeIDs() [][]rdfgraph.ID {
	_, parts := sg.nodeCaches()
	return parts
}

// IsNode implements rdfgraph.Reader. The owner shard sees id whenever it
// is a subject; any shard may see it as an object.
func (sg *ShardedGraph) IsNode(id rdfgraph.ID) bool {
	for _, sh := range sg.shards {
		if sh.IsNode(id) {
			return true
		}
	}
	return false
}

// Triples implements rdfgraph.Reader.
func (sg *ShardedGraph) Triples() []rdf.Triple {
	ids := make([]rdfgraph.IDTriple, 0, sg.Len())
	sg.EachTriple(func(s, p, o rdfgraph.ID) { ids = append(ids, rdfgraph.IDTriple{S: s, P: p, O: o}) })
	rdfgraph.SortIDTriples(sg.dict, ids)
	return sg.dict.DecodeTriples(ids)
}

var _ rdfgraph.Reader = (*ShardedGraph)(nil)

// reader returns the read surface requests use. With one shard there is
// nothing to route or merge, so that is the shard itself: reads pay no
// indirection and extraction schedules flat instead of scatter-gather.
func (sg *ShardedGraph) reader() rdfgraph.Reader {
	if len(sg.shards) == 1 {
		return sg.shards[0]
	}
	return sg
}

// Sharded is the Store implementation: each epoch is a frozen
// ShardedGraph. Readers never block; writers serialize on a mutex and
// build the next epoch by cloning every shard copy-on-write against one
// shared dictionary overlay, so unchanged index submaps and the dictionary
// are shared across epochs and IDs remain stable.
type Sharded struct {
	mu    sync.Mutex
	cur   atomic.Pointer[shardedSnap]
	cross atomic.Uint64
}

type shardedSnap struct {
	sg    *ShardedGraph
	epoch uint64
}

func (s *shardedSnap) Reader() rdfgraph.Reader { return s.sg.reader() }
func (s *shardedSnap) Epoch() uint64           { return s.epoch }

// newSharded freezes an already-loaded ShardedGraph and wraps it as epoch 1.
func newSharded(sg *ShardedGraph) *Sharded {
	st := &Sharded{}
	sg.cross = &st.cross
	st.publish(sg, 1)
	return st
}

// publish freezes sg and makes it the current snapshot.
func (st *Sharded) publish(sg *ShardedGraph, epoch uint64) *shardedSnap {
	sg.Freeze()
	snap := &shardedSnap{sg: sg, epoch: epoch}
	st.cur.Store(snap)
	return snap
}

// Current implements Store.
func (st *Sharded) Current() Snapshot { return st.cur.Load() }

// Apply implements Store. A no-op delta publishes nothing and returns the
// current snapshot with Changed=false. Apply never blocks readers: they
// keep resolving Current against the old epoch until the new pointer is
// stored. The component analysis behind Unaffected is built over the edges
// of *every* shard plus the added edges: components span shard boundaries,
// and a per-shard analysis would let the neighborhood cache carry entries
// for nodes whose component changed on another shard.
func (st *Sharded) Apply(d rdfgraph.Delta) ApplyResult {
	st.mu.Lock()
	defer st.mu.Unlock()

	old := st.cur.Load()
	ng := old.sg.cloneCOW()
	var added, deleted int
	var touched []rdfgraph.ID
	for _, t := range d.Del {
		s := ng.LookupTerm(t.S)
		p := ng.LookupTerm(t.P)
		o := ng.LookupTerm(t.O)
		if s == rdfgraph.NoID || p == rdfgraph.NoID || o == rdfgraph.NoID {
			continue
		}
		if ng.RemoveIDs(s, p, o) {
			deleted++
			touched = append(touched, s, o)
		}
	}
	type addedEdge struct{ s, o rdfgraph.ID }
	var newEdges []addedEdge
	for _, t := range d.Add {
		s := ng.TermID(t.S)
		p := ng.TermID(t.P)
		o := ng.TermID(t.O)
		if ng.AddIDs(s, p, o) {
			added++
			touched = append(touched, s, o)
			newEdges = append(newEdges, addedEdge{s, o})
		}
	}
	if added == 0 && deleted == 0 {
		// No state was mutated (duplicate adds and absent deletions
		// return before touching any index), so the clone is discarded.
		return ApplyResult{
			Snapshot:   old,
			Prev:       old.epoch,
			Unaffected: func(rdfgraph.ID) bool { return true },
		}
	}

	// Components over old edges ∪ added edges: old edges keep nodes that
	// could reach a deleted triple connected to it, added edges connect
	// previously separate components the new triples now bridge.
	uf := rdfgraph.NewComponents(ng.Dict().Len())
	old.sg.EachTriple(func(s, _, o rdfgraph.ID) { uf.Union(s, o) })
	for _, e := range newEdges {
		uf.Union(e.s, e.o)
	}
	dirty := uf.DirtySet(touched)

	return ApplyResult{
		Snapshot:   st.publish(ng, old.epoch+1),
		Prev:       old.epoch,
		Added:      added,
		Deleted:    deleted,
		Changed:    true,
		Unaffected: uf.Unaffected(dirty),
	}
}

// NumShards implements Store.
func (st *Sharded) NumShards() int { return st.cur.Load().sg.NumShards() }

// ShardTriples implements Store.
func (st *Sharded) ShardTriples() []int { return st.cur.Load().sg.ShardLens() }

// CrossShardResolutions implements Store.
func (st *Sharded) CrossShardResolutions() uint64 { return st.cross.Load() }
