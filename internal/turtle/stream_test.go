package turtle_test

import (
	"errors"
	"strings"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/turtle"
)

func TestNTriplesWriterParity(t *testing.T) {
	// A graph big enough to cross the flush threshold several times, so the
	// test covers buffered, flushed, and final-partial output segments.
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 11})
	triples := g.Triples()
	want := turtle.FormatNTriples(triples)
	if len(want) < 100<<10 {
		t.Fatalf("test corpus too small to exercise flushing: %d bytes", len(want))
	}

	var sb strings.Builder
	nw := turtle.NewNTriplesWriter(&sb)
	if err := nw.WriteAll(triples); err != nil {
		t.Fatal(err)
	}
	// Something must already have reached the writer before the final Flush.
	if sb.Len() == 0 {
		t.Error("no incremental flush happened below the final Flush")
	}
	if err := nw.Flush(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("streamed output differs from FormatNTriples (%d vs %d bytes)", sb.Len(), len(want))
	}
	if nw.Count() != len(triples) {
		t.Errorf("Count = %d, want %d", nw.Count(), len(triples))
	}
	if nw.Err() != nil {
		t.Errorf("Err = %v", nw.Err())
	}
}

type failingWriter struct{ writes int }

func (fw *failingWriter) Write(p []byte) (int, error) {
	fw.writes++
	return 0, errors.New("sink closed")
}

func TestNTriplesWriterStickyError(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 300, Seed: 3})
	triples := g.Triples()

	fw := &failingWriter{}
	nw := turtle.NewNTriplesWriter(fw)
	err := nw.WriteAll(triples)
	if err == nil {
		t.Fatal("expected the sink error to surface")
	}
	// After the first failure every further write is a no-op returning the
	// same error, without touching the sink again.
	writesAtFailure := fw.writes
	if err2 := nw.WriteTriple(triples[0]); !errors.Is(err2, err) {
		t.Errorf("sticky error not returned: %v", err2)
	}
	if err2 := nw.Flush(); !errors.Is(err2, err) {
		t.Errorf("Flush after failure: %v", err2)
	}
	if fw.writes != writesAtFailure {
		t.Errorf("writer touched the failed sink again (%d -> %d writes)", writesAtFailure, fw.writes)
	}
	if nw.Err() == nil {
		t.Error("Err must report the sticky error")
	}
}

func TestNTriplesWriterEmpty(t *testing.T) {
	var sb strings.Builder
	nw := turtle.NewNTriplesWriter(&sb)
	if err := nw.Flush(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 || nw.Count() != 0 {
		t.Errorf("empty writer produced %d bytes, count %d", sb.Len(), nw.Count())
	}
}

// TestNTriplesWriterPooledBufferReuse: Close hands the buffer to the next
// writer, which must see none of the bytes the first one left unflushed;
// the closed writer refuses further use instead of scribbling on a buffer
// it no longer owns.
func TestNTriplesWriterPooledBufferReuse(t *testing.T) {
	triples := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 5}).Triples()
	first, second := triples[:len(triples)/2], triples[len(triples)/2:]
	for round := 0; round < 3; round++ {
		var a, b strings.Builder
		nw := turtle.NewNTriplesWriter(&a)
		if err := nw.WriteAll(first[:40]); err != nil { // stays below the flush threshold
			t.Fatal(err)
		}
		nw.Close()
		nw.Close() // idempotent
		if err := nw.WriteTriple(first[0]); err == nil {
			t.Fatal("WriteTriple after Close must fail")
		}
		if err := nw.Flush(); err == nil || a.Len() != 0 {
			t.Fatalf("Flush after Close: err=%v, %d bytes reached the sink", err, a.Len())
		}

		nw2 := turtle.NewNTriplesWriter(&b)
		if err := nw2.WriteAll(second); err != nil {
			t.Fatal(err)
		}
		if err := nw2.Flush(); err != nil {
			t.Fatal(err)
		}
		nw2.Close()
		if want := turtle.FormatNTriples(second); b.String() != want {
			t.Fatalf("round %d: second writer wrote %d bytes, want %d (FormatNTriples)", round, b.Len(), len(want))
		}
	}
}
