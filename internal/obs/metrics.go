package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets in seconds: 100µs to 10s in
// a 1-2.5-5 progression, a spread wide enough to cover both cache hits
// and whole-graph parallel extractions.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics) plus an implicit +Inf bucket, and
// tracks the running sum. Create with NewHistogram or Registry.Histogram;
// all methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, updated by CAS
	total  atomic.Uint64

	// exemplars holds the most recent exemplar-carrying observation per
	// bucket (nil until one lands). Swapped whole via atomic pointers so
	// renders never see a torn (value, trace) pair.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one concrete observation to the trace that produced it,
// rendered in OpenMetrics exemplar syntax after the bucket's sample.
type Exemplar struct {
	TraceID string
	Value   float64
}

// NewHistogram returns a histogram over the given ascending upper bounds;
// nil or empty bounds select DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bucket returns the index of the bucket v lands in. Linear scan: bucket
// counts are small and fixed, and the scan is branch-predictable; a
// binary search would not pay for itself.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// ObserveExemplar records one value and remembers traceID as the
// bucket's exemplar: the last sampled request to land in each latency
// bucket stays linked from /metrics to /debug/traces. An empty traceID
// degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	h.exemplars[h.bucket(v)].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Exemplars returns the current per-bucket exemplars, aligned with
// Cumulative (nil entries where no exemplar has landed).
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Cumulative returns the cumulative count of observations <= bound for
// each configured bound, ending with the +Inf bucket (== Count()).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Label is one name=value pair attached to a metric.
type Label struct{ Key, Value string }

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series within a family: exactly one of the value
// fields is set. fn-backed series are sampled at render time, which is
// how externally owned state (cache statistics, uptime) joins the
// registry without double bookkeeping.
type child struct {
	labels  string // rendered `{k="v",…}` form, also the identity key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

type family struct {
	name, help string
	kind       metricKind
	children   map[string]*child
}

// Registry is a named collection of metrics that renders the Prometheus
// text exposition format (version 0.0.4) and snapshots to expvar-friendly
// JSON. Get-or-create accessors make registration idempotent: asking for
// the same (name, labels) twice returns the same metric, so callers need
// no init ordering. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order of family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelValueEscaper.Replace(v) }

// series returns the child for (name, labels), creating family and child
// as needed. Re-registering a name with a different kind is a programming
// error and panics.
func (r *Registry) series(name, help string, kind metricKind, labels []Label) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	key := renderLabels(labels)
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: key}
		f.children[key] = c
	}
	return c
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.series(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.series(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// GaugeFunc registers a gauge whose value is sampled from fn at render
// time — the bridge for state owned elsewhere (cache sizes, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.series(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c.fn = fn
}

// CounterFunc registers a counter sampled from fn at render time; fn must
// be monotonically non-decreasing for the series to be a valid counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.series(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c.fn = fn
}

// Histogram returns the histogram for (name, labels), creating it over
// the given bounds on first use (nil bounds select DefBuckets). Bounds of
// an existing histogram are not changed.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	c := r.series(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.hist == nil {
		c.hist = NewHistogram(bounds)
	}
	return c.hist
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderFamily is a consistent point-in-time copy of one family taken
// under the registry lock, for rendering after the lock is released.
type renderFamily struct {
	f        *family
	children []*child
}

// renderSnapshot copies the families in sorted name order with children
// in sorted label order. Sorting by name (rather than registration
// order) makes the exposition byte-for-byte deterministic regardless of
// which code path touched the registry first — registration order
// depends on request interleaving, which made scrape diffs noisy.
func (r *Registry) renderSnapshot() []renderFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]renderFamily, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		fams = append(fams, renderFamily{f: f, children: children})
	}
	return fams
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format: families in sorted name order, series within a
// family in sorted label order, histograms with cumulative le buckets
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, rf := range r.renderSnapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			rf.f.name, rf.f.help, rf.f.name, rf.f.kind); err != nil {
			return err
		}
		for _, c := range rf.children {
			if err := writeSeries(w, rf.f.name, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteOpenMetrics renders the registry in the OpenMetrics text format:
// the same samples as WritePrometheus plus exemplar annotations on
// histogram buckets, counter families declared under their base name
// (the `_total` suffix moves to the sample line, as the spec requires),
// and the mandatory `# EOF` terminator. Exemplars are what link a
// latency bucket to the trace ID of the last sampled request that
// landed in it.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	for _, rf := range r.renderSnapshot() {
		base := rf.f.name
		if rf.f.kind == kindCounter {
			base = strings.TrimSuffix(base, "_total")
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			base, rf.f.help, base, rf.f.kind); err != nil {
			return err
		}
		for _, c := range rf.children {
			var err error
			if c.hist != nil {
				err = writeHistogramOM(w, rf.f.name, c)
			} else {
				err = writeSeries(w, rf.f.name, c)
			}
			if err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func writeSeries(w io.Writer, name string, c *child) error {
	switch {
	case c.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, c.labels, formatFloat(c.fn()))
		return err
	case c.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.counter.Value())
		return err
	case c.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.gauge.Value())
		return err
	case c.hist != nil:
		return writeHistogram(w, name, c)
	}
	return nil
}

// writeHistogram renders one histogram series. The le label is appended
// to the series' own labels (which are rendered with a trailing '}'), so
// the brace is spliced rather than re-rendered.
func writeHistogram(w io.Writer, name string, c *child) error {
	cum := c.hist.Cumulative()
	open := "{"
	if c.labels != "" {
		open = strings.TrimSuffix(c.labels, "}") + ","
	}
	for i, bound := range c.hist.bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n",
			name, open, formatFloat(bound), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n",
		name, open, cum[len(cum)-1]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		name, c.labels, formatFloat(c.hist.Sum()), name, c.labels, c.hist.Count()); err != nil {
		return err
	}
	return nil
}

// writeHistogramOM renders one histogram series in OpenMetrics form:
// identical to writeHistogram except that buckets carrying an exemplar
// get the `# {trace_id="…"} value` suffix. Exemplar timestamps are
// omitted (they are optional in the spec) so the output stays
// deterministic for a fixed set of observations.
func writeHistogramOM(w io.Writer, name string, c *child) error {
	cum := c.hist.Cumulative()
	ex := c.hist.Exemplars()
	open := "{"
	if c.labels != "" {
		open = strings.TrimSuffix(c.labels, "}") + ","
	}
	writeBucket := func(le string, i int) error {
		suffix := ""
		if e := ex[i]; e != nil {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s", e.TraceID, formatFloat(e.Value))
		}
		_, err := fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d%s\n", name, open, le, cum[i], suffix)
		return err
	}
	for i, bound := range c.hist.bounds {
		if err := writeBucket(formatFloat(bound), i); err != nil {
			return err
		}
	}
	if err := writeBucket("+Inf", len(cum)-1); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		name, c.labels, formatFloat(c.hist.Sum()), name, c.labels, c.hist.Count())
	return err
}

// openMetricsContentType is the content type the OpenMetrics exposition
// is served under when the scraper negotiates for it.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler returns an http.Handler serving the registry — mount it as
// /metrics. Scrapers that send `Accept: application/openmetrics-text`
// (Prometheus does when exemplar storage is on) get the OpenMetrics
// exposition with exemplars; everyone else gets the classic text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", openMetricsContentType)
			r.WriteOpenMetrics(w) //nolint:errcheck — nothing to do about a failed write
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck — nothing to do about a failed write
	})
}

// Snapshot returns the registry as a JSON-marshalable map: counters and
// gauges as numbers keyed by name+labels, histograms as {count, sum}.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any)
	for _, name := range r.order {
		for _, c := range r.families[name].children {
			key := name + c.labels
			switch {
			case c.fn != nil:
				out[key] = c.fn()
			case c.counter != nil:
				out[key] = c.counter.Value()
			case c.gauge != nil:
				out[key] = c.gauge.Value()
			case c.hist != nil:
				out[key] = map[string]any{"count": c.hist.Count(), "sum": c.hist.Sum()}
			}
		}
	}
	return out
}

// expvarTargets routes published expvar names to their current registry.
// expvar has no unpublish, so re-publishing a name (a fresh Server in the
// same process, common in tests) swaps the target the published Func
// reads instead of panicking inside expvar.
var (
	expvarMu      sync.Mutex
	expvarTargets = make(map[string]*Registry)
)

// PublishExpvar publishes the registry's Snapshot under name in the
// process-wide expvar namespace (GET /debug/vars). Safe to call more than
// once and with successive registries: the last registry published under
// a name wins.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarTargets[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			target := expvarTargets[name]
			expvarMu.Unlock()
			return target.Snapshot()
		}))
	}
	expvarTargets[name] = r
}
