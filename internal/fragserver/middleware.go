package fragserver

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"shaclfrag/internal/core"
	"shaclfrag/internal/obs"
)

// withTimeout attaches the per-request compute budget to the request
// context; extraction loops observe it between work units.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.timeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withLimit bounds in-flight requests. Extraction is CPU-bound, so queueing
// beyond the limit only grows latency; shed load immediately instead and
// let the client retry. The in-flight gauge and shed counter live here so
// their values describe exactly what the limiter sees.
func (s *Server) withLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			s.metrics.inflight.Add(1)
			defer func() {
				s.metrics.inflight.Add(-1)
				<-s.sem
			}()
			next.ServeHTTP(w, r)
		default:
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		}
	})
}

// statusWriter captures status and byte count for access logging while
// forwarding Flush so streamed responses keep streaming.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObs is the outermost middleware: it roots the request's span tree —
// the one record of where the request's time goes — and carries the root
// in the context, where handlers open a child per stage and core grows
// the rest. The end of the request reads the stages off the tree: one
// structured access-log line with the stage fields appended, and the
// rollup into the metrics registry. Sitting outside withLimit means shed
// requests are counted and logged too.
//
// Every request records; the head sampler (or an upstream's sampled
// traceparent header) decides only what is retained: the continuation
// traceparent on the response, the root's http.* attributes, and the
// finished trace in the ring — error and slow traces marked notable. The
// route latency histogram records a kept trace's ID as the bucket's
// exemplar, linking /metrics to /debug/traces.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := normalizeRoute(r.URL.Path)
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		st := obs.NewSpanTrace(r.Method+" "+route, parent)
		keep := s.sampleTrace() || parent.Sampled
		if keep {
			w.Header().Set("traceparent", st.Traceparent())
		} else {
			s.traces.MarkDropped()
		}
		sw := &statusWriter{ResponseWriter: w}
		defer func() { s.finish(sw, r, route, start, st, keep, recover()) }()
		next.ServeHTTP(sw, r.WithContext(obs.NewContext(r.Context(), st.Root())))
	})
}

// finish is the end of every request, reached by return or by panic. A
// panic — a bug in a handler or an extraction rule, a corrupt index; a
// *core.PanicError is one recovered on a worker goroutine that the handler
// raised again here — is a counted, logged 500 like any other outcome:
// written when the response has not begun, and otherwise handed to
// net/http as the abort that cuts the connection, so the client does not
// take a truncated body for a whole one. No Retry-After: retrying the same
// request would hit the same fault.
func (s *Server) finish(sw *statusWriter, r *http.Request, route string, start time.Time, st *obs.SpanTrace, keep bool, panicked any) {
	begun := sw.status != 0
	if panicked != nil {
		stack := debug.Stack()
		if pe, ok := panicked.(*core.PanicError); ok {
			panicked, stack = pe.Value, pe.Stack
		}
		s.metrics.panics.Inc()
		s.log.Error("panic serving request", "path", r.URL.Path, "query", r.URL.RawQuery,
			"panic", fmt.Sprint(panicked), "stack", string(stack))
		if !begun {
			http.Error(sw, "internal error", http.StatusInternalServerError)
		}
		sw.status = http.StatusInternalServerError
	}
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	dur := time.Since(start)
	slow := s.slowReq > 0 && dur >= s.slowReq
	root := st.Root()
	traceID := ""
	if keep {
		root.SetAttr("http.route", route)
		root.SetAttrInt("http.status", int64(sw.status))
		root.SetAttrInt("http.bytes", sw.bytes)
		root.End()
		s.traces.Keep(st, sw.status >= 500 || slow)
		traceID = st.ID().String()
	}
	var buf [8]obs.Stage
	stages := obs.Stages(buf[:0], root, stageNames)
	s.metrics.observe(route, sw.status, sw.bytes, dur, stages, traceID)
	// Boxing the fields costs a dozen allocations; skip it when no
	// handler would see the line.
	if slow || s.log.Enabled(r.Context(), slog.LevelInfo) {
		args := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", dur.Milliseconds(),
			"remote", r.RemoteAddr,
		}
		s.log.Info("request", append(args, obs.LogArgs(stages)...)...)
		if slow {
			slowArgs := append(args, "threshold_ms", s.slowReq.Milliseconds(), "top_spans", st.TopSpans(3))
			if keep {
				slowArgs = append(slowArgs, "trace_id", traceID)
			}
			s.log.Warn("slow request", slowArgs...)
		}
	}
	if panicked != nil && begun {
		panic(http.ErrAbortHandler)
	}
}
