package paths

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/rdfgraph"
)

// modelKey draws keys the way searches make them: a node anywhere in the ID
// range, NoID included, over a handful of states, from a pool small enough
// that finds hit and adds repeat.
func modelKey(rng *rand.Rand, pool int) uint64 {
	node := rdfgraph.ID(rng.Intn(pool))
	switch rng.Intn(8) {
	case 0:
		node = math.MaxInt32 - node
	case 1:
		node = rdfgraph.NoID
	}
	return productState{node: node, state: rng.Intn(5)}.key()
}

// Model test: a stateTable is a map[uint64]int32 that hands out 0..n-1 in
// insertion order, across several doublings, and a reset forgets everything.
func TestStateTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab stateTable
	for round := 0; round < 20; round++ {
		tab.reset()
		ref := make(map[uint64]int32)
		ops := []int{0, 3, 40, 3000}[round%4] // 3000 adds: 16 slots doubling to 4096
		for op := 0; op < ops; op++ {
			key := modelKey(rng, ops)
			if rng.Intn(3) == 0 {
				want, ok := ref[key]
				if !ok {
					want = -1
				}
				if got := tab.find(key); got != want {
					t.Fatalf("round %d: find(%#x) = %d, model %d", round, key, got, want)
				}
				continue
			}
			want, had := ref[key]
			if !had {
				want = int32(len(ref))
				ref[key] = want
			}
			if id, added := tab.add(key); id != want || added == had {
				t.Fatalf("round %d: add(%#x) = %d, %v; model %d, %v", round, key, id, added, want, !had)
			}
		}
		// Every id survived the rehashes, and nothing else is in the table.
		for key, want := range ref {
			if got := tab.find(key); got != want {
				t.Fatalf("round %d: after %d adds find(%#x) = %d, model %d", round, len(ref), key, got, want)
			}
		}
		if int(tab.n) != len(ref) {
			t.Fatalf("round %d: %d ids handed out, model has %d keys", round, tab.n, len(ref))
		}
	}
}

// live counts the slots stamped with the current generation.
func (t *stateTable) live() int {
	n := 0
	for _, s := range t.slots {
		if s.gen == t.gen {
			n++
		}
	}
	return n
}

// A reset leaves no entry of an earlier generation visible: not after 10 000
// of them on one table, and not when the generation counter wraps, which no
// search reaches for 4 billion resets and only this test runs — nor when the
// table changes hands inside scratch an evaluator released.
func TestStateTableReset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var tab stateTable
	var prev []uint64
	check := func(when string) {
		t.Helper()
		if n := tab.live(); n != 0 || tab.n != 0 {
			t.Fatalf("%s: %d live slots, %d ids after reset", when, n, tab.n)
		}
		for _, key := range prev {
			if id := tab.find(key); id != -1 {
				t.Fatalf("%s: find(%#x) = %d, a key of the generation before", when, key, id)
			}
		}
	}
	fill := func() {
		prev = prev[:0]
		for i := rng.Intn(40); i >= 0; i-- {
			key := modelKey(rng, 30)
			if id, added := tab.add(key); added && int(id) != len(prev) {
				t.Fatalf("add(%#x) = %d, want the next id %d", key, id, len(prev))
			} else if added {
				prev = append(prev, key)
			}
		}
	}
	for i := 0; i < 10000; i++ {
		tab.reset()
		check("reset")
		fill()
	}

	// The wrap: every slot carries a stamp of old, among them the one the
	// counter is about to reach again.
	tab.gen = math.MaxUint32
	for i := range tab.slots {
		tab.slots[i].gen = []uint32{1, math.MaxUint32}[i%2]
		prev = append(prev, tab.slots[i].key)
	}
	tab.reset()
	if tab.gen == 0 {
		t.Fatal("generation 0 is current after the wrap: the slots grow makes would read as taken")
	}
	check("wrap")
	fill()
	tab.reset()
	check("reset after wrap")

	// And through the pool: scratch an evaluator released carries no kept
	// search, and the evaluator that takes it over finds none of the states,
	// and gives none of the answers, of the search it last ran.
	g := randomGraph(rng, 5, 12)
	e := Star{X: Alt{Left: P(base + "p"), Right: Inv(P(base + "q"))}}
	nodes := g.NodeIDs()
	first := NewEvaluator(e, g)
	first.TraceSetInto(nodes, nodes, nil)
	s, old := first.search, append([]productState(nil), first.order...)
	first.Release()
	if first.search != nil || s.ok {
		t.Fatalf("after Release: evaluator holds scratch %v, scratch keeps its search %v", first.search != nil, s.ok)
	}
	second := NewEvaluator(e, g)
	second.search = s // what searchPool does, minus its freedom to drop one
	for _, a := range nodes {
		got, want := second.EvalSet([]rdfgraph.ID{a}, nil), NewEvaluator(e, g).EvalSet([]rdfgraph.ID{a}, nil)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("on released scratch EvalSet(%v) = %v, fresh evaluator %v", g.Term(a), got, want)
		}
		for _, ps := range old {
			if id := s.reach.find(ps.key()); id >= 0 && s.order[id] != ps {
				t.Fatalf("on released scratch state %v has id %d, which is %v", ps, id, s.order[id])
			}
		}
	}
}
