package turtle

import (
	"errors"
	"io"
	"sync"

	"shaclfrag/internal/rdf"
)

// ntFlushThreshold is the buffered-bytes level at which NTriplesWriter
// forwards to the underlying writer. Large enough to amortize syscalls,
// small enough that serving a million-triple fragment never materializes
// more than a screenful of serialization in memory.
const ntFlushThreshold = 32 << 10

// NTriplesWriter serializes triples incrementally in canonical N-Triples
// form, one statement per line, flushing to the underlying writer every
// ~32 KiB. It is the streaming counterpart of FormatNTriples: output is
// byte-identical for the same triple sequence, but memory use is bounded by
// the flush threshold instead of the total serialization.
//
// Errors from the underlying writer are sticky: the first one is recorded,
// subsequent WriteTriple calls become no-ops returning it, so a serving
// loop may check the error once at Flush time.
//
// The buffer comes from a pool. Close hands it back; a writer that is only
// flushed keeps working, its buffer is just garbage-collected instead of
// reused.
type NTriplesWriter struct {
	w      io.Writer
	buf    []byte
	pooled *[]byte // the pool's box for buf, nil once closed
	count  int
	err    error
}

var ntBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, ntFlushThreshold+1024)
	return &b
}}

var errClosed = errors.New("turtle: NTriplesWriter used after Close")

// NewNTriplesWriter returns a writer streaming to w.
func NewNTriplesWriter(w io.Writer) *NTriplesWriter {
	p := ntBufPool.Get().(*[]byte)
	return &NTriplesWriter{w: w, buf: (*p)[:0], pooled: p}
}

// Close returns the buffer to the pool, discarding whatever has not been
// flushed: call Flush first unless the stream is being abandoned. The
// writer must not be used afterwards — writes and flushes fail, since the
// buffer may already belong to another writer.
func (nw *NTriplesWriter) Close() {
	if nw.pooled == nil {
		return
	}
	*nw.pooled = nw.buf
	ntBufPool.Put(nw.pooled)
	nw.buf, nw.pooled = nil, nil
	if nw.err == nil {
		nw.err = errClosed
	}
}

// appendStatement appends t as one N-Triples line.
func appendStatement(dst []byte, t rdf.Triple) []byte {
	return append(t.AppendNTriples(dst), " .\n"...)
}

// WriteTriple appends one statement, flushing if the buffer is full.
func (nw *NTriplesWriter) WriteTriple(t rdf.Triple) error {
	if nw.err != nil {
		return nw.err
	}
	nw.buf = appendStatement(nw.buf, t)
	nw.count++
	if len(nw.buf) >= ntFlushThreshold {
		return nw.Flush()
	}
	return nil
}

// WriteAll appends a triple slice, stopping at the first error.
func (nw *NTriplesWriter) WriteAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := nw.WriteTriple(t); err != nil {
			return err
		}
	}
	return nil
}

// Flush forwards any buffered bytes to the underlying writer.
func (nw *NTriplesWriter) Flush() error {
	if nw.err != nil {
		return nw.err
	}
	if len(nw.buf) == 0 {
		return nil
	}
	_, nw.err = nw.w.Write(nw.buf)
	nw.buf = nw.buf[:0]
	return nw.err
}

// Count returns the number of triples written so far.
func (nw *NTriplesWriter) Count() int { return nw.count }

// Err returns the sticky error, if any.
func (nw *NTriplesWriter) Err() error { return nw.err }
