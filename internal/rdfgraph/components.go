package rdfgraph

import "shaclfrag/internal/rdf"

// Delta is a batch of triple additions and deletions applied atomically.
// Deletions run first, so a triple in both lists ends up present.
// Deleting an absent triple (including one naming unknown terms) is a
// no-op, and adding a present triple is a no-op; only effective operations
// count toward the store's ApplyResult (see internal/store).
type Delta struct {
	Add []rdf.Triple
	Del []rdf.Triple
}

// Components is a disjoint-set forest over dense IDs, used by the snapshot
// store to decide which weakly-connected components a delta touches. It
// must be built over the *whole* graph a reader can observe: the store
// unions edges from every shard before asking for roots, because a
// component — and therefore a neighborhood B(v, G, φ) — freely spans shard
// boundaries even though each triple is stored on exactly one shard.
type Components struct {
	parent []ID
}

// NewComponents returns a forest of n singleton components.
func NewComponents(n int) *Components {
	uf := &Components{parent: make([]ID, n)}
	for i := range uf.parent {
		uf.parent[i] = ID(i)
	}
	return uf
}

func (uf *Components) find(x ID) ID {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the components of a and b.
func (uf *Components) Union(a, b ID) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf.parent[ra] = rb
	}
}

// Compress points every element directly at its root; afterwards Root does
// no writes and may be called from any number of goroutines.
func (uf *Components) Compress() {
	for i := range uf.parent {
		uf.parent[ID(i)] = uf.find(ID(i))
	}
}

// Root returns the component representative of x. Call Compress first when
// Root will be used concurrently.
func (uf *Components) Root(x ID) ID { return uf.parent[x] }

// DirtySet compresses the forest and returns the set of component roots
// touched by the given IDs (typically every endpoint of an effective delta
// triple).
func (uf *Components) DirtySet(touched []ID) map[ID]struct{} {
	uf.Compress()
	dirty := make(map[ID]struct{}, len(touched))
	for _, id := range touched {
		dirty[uf.Root(id)] = struct{}{}
	}
	return dirty
}

// Unaffected returns the predicate ApplyResult carries: true iff the ID is
// in range and its component root is not in dirty. The forest must already
// be compressed (DirtySet does this); the returned func is then safe for
// concurrent use.
func (uf *Components) Unaffected(dirty map[ID]struct{}) func(ID) bool {
	return func(id ID) bool {
		if int(id) < 0 || int(id) >= len(uf.parent) {
			return false
		}
		_, hit := dirty[uf.Root(id)]
		return !hit
	}
}
