package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// cacheModel is the reference NeighborhoodCache: one map entry per
// (shape, node) key, and the second-chance queue as a slice of keys.
type cacheModel struct {
	budget, size int
	applied      uint64
	entries      map[modelKey]*modelEntry
	queue        []modelKey
	stats        CacheStats
}

type modelKey struct {
	phi int
	v   rdfgraph.ID
}

type modelEntry struct {
	from    uint64
	triples []rdfgraph.IDTriple
	ref     bool
}

func (m *cacheModel) get(epoch uint64, k modelKey) ([]rdfgraph.IDTriple, bool) {
	if en := m.entries[k]; en != nil && en.from <= epoch && epoch <= max(en.from, m.applied) {
		m.stats.Hits++
		en.ref = true
		return en.triples, true
	}
	m.stats.Misses++
	return nil, false
}

func (m *cacheModel) remove(k modelKey) {
	m.size -= entryCost(m.entries[k].triples)
	delete(m.entries, k)
	m.queue = slices.DeleteFunc(m.queue, func(q modelKey) bool { return q == k })
}

func (m *cacheModel) put(epoch uint64, k modelKey, ts []rdfgraph.IDTriple) {
	cost := entryCost(ts)
	if cost > m.budget || epoch < m.applied {
		return
	}
	if en := m.entries[k]; en != nil {
		if en.from > epoch || en.from <= epoch && epoch <= max(en.from, m.applied) {
			en.ref = true
			return
		}
		m.remove(k)
	}
	for m.size+cost > m.budget && len(m.queue) > 0 {
		head := m.queue[0]
		if en := m.entries[head]; en.ref {
			en.ref = false
			m.queue = append(m.queue[1:], head)
			continue
		}
		m.stats.Evictions++
		m.stats.EvictedTriples += uint64(len(m.entries[head].triples))
		m.remove(head)
	}
	m.entries[k] = &modelEntry{from: epoch, triples: ts}
	m.queue = append(m.queue, k)
	m.size += cost
}

// TestNeighborhoodCacheMatchesModel runs seeded random sequences of Put,
// Get, getRun, SetEpoch and the locked step of Invalidate (given random
// walk results: reached nodes per tracked shape, walks past their cap,
// failed walks, skipped epochs) over three tracked shapes, one untracked
// and thirty nodes, against cacheModel: every hit, miss, returned triple
// and counter must agree after every operation. Under the large budget
// nothing is evicted; under the small one the sweep runs on most Puts,
// and the triples held must stay within the budget.
func TestNeighborhoodCacheMatchesModel(t *testing.T) {
	var shapes []shape.Shape
	for i := 0; i < 4; i++ {
		shapes = append(shapes, shape.Min(1, paths.P(fmt.Sprintf("http://ex/p%d", i)), shape.TrueShape()))
	}
	unknown := shape.Min(2, paths.P("http://ex/p0"), shape.TrueShape()) // never put
	const tracked, nodes = 3, 30
	for _, budget := range []int{1 << 20, 24} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("budget=%d/seed=%d", budget, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := NewNeighborhoodCache(budget)
				c.SetFootprints(shapes[:tracked], nil)
				m := &cacheModel{budget: budget, entries: map[modelKey]*modelEntry{}}
				serial := 0
				key := func() modelKey { return modelKey{rng.Intn(len(shapes)), rdfgraph.ID(1 + rng.Intn(nodes))} }
				epoch := func() uint64 { return m.applied + uint64(rng.Intn(3)) - min(m.applied, 1) }
				for op := 0; op < 3000; op++ {
					switch r := rng.Intn(100); {
					case r < 40:
						k, e := key(), epoch()
						ts := make([]rdfgraph.IDTriple, rng.Intn(6))
						for i := range ts {
							serial++
							ts[i] = rdfgraph.IDTriple{S: rdfgraph.ID(serial)}
						}
						c.Put(e, k.v, shapes[k.phi], ts)
						m.put(e, k, ts)
					case r < 60:
						k, e := key(), epoch()
						got, ok := c.Get(e, k.v, shapes[k.phi])
						want, wok := m.get(e, k)
						if ok != wok || !slices.Equal(got, want) {
							t.Fatalf("op %d: Get(%d, %v) = %v, %v; model %v, %v", op, e, k, got, ok, want, wok)
						}
					case r < 85:
						v, e := rdfgraph.ID(1+rng.Intn(nodes)), epoch()
						idx := rng.Perm(len(shapes) + 1)[:1+rng.Intn(len(shapes)+1)]
						if rng.Intn(2) == 0 {
							slices.Sort(idx) // column order: the walk along the row
						}
						var list []shape.Shape
						var want []rdfgraph.IDTriple
						wantN := len(idx)
						for i, j := range idx {
							if j == len(shapes) {
								list = append(list, unknown)
							} else {
								list = append(list, shapes[j])
							}
							if i >= wantN {
								continue
							}
							if j == len(shapes) {
								m.stats.Misses++
								wantN = i
							} else if ts, ok := m.get(e, modelKey{j, v}); ok {
								want = append(want, ts...)
							} else {
								wantN = i
							}
						}
						got, n := c.getRun(e, v, list, nil)
						if n != wantN || !slices.Equal(got, want) {
							t.Fatalf("op %d: getRun(%d, %d, %v) served %d: %v; model %d: %v", op, e, v, idx, n, got, wantN, want)
						}
					case r < 88:
						e := epoch()
						c.SetEpoch(e)
						m.applied = e
					default:
						prev := m.applied + uint64(rng.Intn(8)/7) // now and then an epoch is skipped
						var st staleness
						if rng.Intn(20) == 0 {
							st.err = fmt.Errorf("walk failed")
						}
						st.spans = make([]span, tracked)
						for i := range st.spans {
							lo := len(st.nodes)
							for n := rng.Intn(4); n > 0; n-- {
								st.nodes = append(st.nodes, rdfgraph.ID(1+rng.Intn(nodes)))
							}
							st.spans[i] = span{int32(lo), int32(len(st.nodes))}
							if rng.Intn(8) == 0 {
								st.spans[i].hi = -1
							}
						}
						invalidated := 0
						for k, en := range m.entries {
							sp := span{hi: -1}
							if k.phi < tracked {
								sp = st.spans[k.phi]
							}
							stale := st.err != nil || prev != m.applied || sp.hi < 0 || slices.Contains(st.nodes[sp.lo:sp.hi], k.v)
							if en.from <= prev && stale {
								m.remove(k)
								invalidated++
							}
						}
						m.applied = prev + 1
						m.stats.Kept += uint64(len(m.entries))
						m.stats.Invalidated += uint64(invalidated)
						kept, n := c.step(prev, st)
						if kept != len(m.entries) || n != invalidated {
							t.Fatalf("op %d: step kept %d, invalidated %d; model %d, %d", op, kept, n, len(m.entries), invalidated)
						}
					}
					want := m.stats
					want.Entries, want.Triples, want.Bytes = len(m.entries), m.size, m.size*idTripleBytes
					if got := c.Stats(); got != want {
						t.Fatalf("op %d: stats %+v, model %+v", op, got, want)
					}
					live := 0
					for en := c.queue.next; en != &c.queue; en = en.next {
						live += entryCost(en.triples)
					}
					if live != m.size || m.size > budget {
						t.Fatalf("op %d: the queued entries hold %d triples, the model %d, the budget %d", op, live, m.size, budget)
					}
				}
				if s := c.Stats(); s.Hits == 0 || s.Invalidated == 0 || (budget < 100) != (s.Evictions > 0) {
					t.Fatalf("the sequence exercised too little: %+v", s)
				}
			})
		}
	}
}
