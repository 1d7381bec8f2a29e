package fragserver

import (
	"context"
	"log/slog"
	"net/http"
	"time"

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

// withObs is the outermost middleware: it attaches a fresh per-request
// obs.Trace to the context (handlers and core record stage timings into
// it), then at end of request emits one structured access-log line with
// the stage fields appended and rolls the request up into the metrics
// registry. Sitting outside withLimit means shed requests are counted
// and logged too.
//
// It is also where hierarchical tracing starts and ends: when the head
// sampler elects the request (or an upstream sent a sampled traceparent
// header), a span tree is rooted under the trace, the continuation
// traceparent goes out on the response, and the finished trace is kept
// in the ring — error and slow traces marked notable. The route latency
// histogram records the trace ID as the bucket's exemplar, linking
// /metrics to /debug/traces.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := normalizeRoute(r.URL.Path)
		tr := obs.NewTrace()
		var st *obs.SpanTrace
		parent, hasParent := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if s.sampleTrace() || (hasParent && parent.Sampled) {
			st = obs.NewSpanTrace(r.Method+" "+route, parent)
			tr.SetRoot(st.Root())
			w.Header().Set("traceparent", st.Traceparent())
		} else {
			s.traces.MarkDropped()
		}
		r = r.WithContext(obs.NewContext(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		slow := s.slowReq > 0 && dur >= s.slowReq
		traceID := ""
		if st != nil {
			root := st.Root()
			root.SetAttr("http.route", route)
			root.SetAttrInt("http.status", int64(sw.status))
			root.SetAttrInt("http.bytes", sw.bytes)
			root.End()
			s.traces.Keep(st, sw.status >= 500 || slow)
			traceID = st.ID().String()
		}
		stages := tr.Stages()
		s.metrics.observe(route, sw.status, sw.bytes, dur, stages, traceID)
		// Boxing the fields costs a dozen allocations; skip it when no
		// handler would see the line.
		if !slow && !s.log.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
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
			slowArgs := append(args, "threshold_ms", s.slowReq.Milliseconds())
			if st != nil {
				slowArgs = append(slowArgs, "trace_id", traceID, "top_spans", st.TopSpans(3))
			}
			s.log.Warn("slow request", slowArgs...)
		}
	})
}
