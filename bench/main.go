// Command bench is the serving benchmark: it generates a graph and a schema
// from a seed, starts a real fragserver on them, drives one of four
// closed-loop HTTP workloads against it, checks the replies against
// in-process extraction, and prints every metric by name. With -trace 1 it
// also replays the workload in-process through the layers' public functions
// under spans of its own. See README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

type options struct {
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	buildDir string
}

func main() {
	var o options
	name := flag.String("workload", "", "workload to run: node-hot, shape-scan, update-mix or hub-path (empty runs all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated graph and request lists")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for generated inputs, server logs and span files")
	flag.StringVar(&o.buildDir, "build", ".bench_build", "directory the fragserver binary is built into")
	flag.Parse()
	o.trace = *trace != 0

	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}

	// Kill the server on every way out: a signal, the hard limit, a failure.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killRunning()
		os.Exit(1)
	}()

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildServer(o.buildDir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bench: seed %d, %d s per workload, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		o.seed, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitSHA())

	ok := true
	for _, w := range run {
		// A run that is five times over its sized duration has hung.
		limit := time.AfterFunc(min(5*time.Duration(o.seconds+20)*time.Second, hardLimit), func() {
			fmt.Fprintf(os.Stderr, "bench: %s exceeded its time limit\n", w.name)
			killRunning()
			os.Exit(1)
		})
		res, err := runWorkload(w, o, bin)
		limit.Stop()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.print(os.Stdout)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	killRunning()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// running is the server currently alive, for the exit paths that cannot
// unwind the stack: a signal, the hard limit, a fatal error.
var running struct {
	sync.Mutex
	c *child
}

func setRunning(c *child) {
	running.Lock()
	running.c = c
	running.Unlock()
}

func killRunning() {
	running.Lock()
	defer running.Unlock()
	if running.c != nil {
		running.c.stop()
		running.c = nil
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, plus what the text before it needs.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload *workload
	defs     []metricDef
	samples  map[string]string // metric → sample count note
	kinds    *tally
	notes    []string
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\nworkload %s\n", r.workload.name)
	for k, name := range kindNames {
		if a := r.kinds.attempted[k]; a > 0 {
			fmt.Fprintf(w, "  %-9s attempted %d succeeded %d failed %d\n", name, a, a-r.kinds.failed[k], r.kinds.failed[k])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", d.name, r.Metrics[d.name].Value, d.unit, r.samples[d.name])
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// hardLimit is below the 180 s a run may take however long -seconds is.
const hardLimit = 170 * time.Second

// A run starts the server several times to time set-up and reports the
// median; the last instance serves the traffic. Three starts at least, and
// more while they are cheap: a 10 ms start needs more samples than a 1 s one
// for a median that repeats.
const (
	setupMin    = 3
	setupMax    = 15
	setupBudget = 1500 * time.Millisecond
)

// startTimed starts the server until set-up time has its samples and leaves
// the last instance running.
func startTimed(bin string, args []string, logPath string) (*child, []float64, error) {
	var srv *child
	var setups []float64
	for spent := time.Duration(0); len(setups) < setupMin || (spent < setupBudget && len(setups) < setupMax); spent += srv.setup {
		killRunning()
		var err error
		if srv, err = startServer(bin, args, logPath); err != nil {
			return nil, nil, err
		}
		setRunning(srv)
		setups = append(setups, srv.setup.Seconds())
	}
	return srv, setups, nil
}

// runWorkload is one run: generate, start, warm up, measure, check.
func runWorkload(w *workload, o options, bin string) (*result, error) {
	in, err := w.build(w, fullSize, o.seed)
	if err != nil {
		return nil, err
	}
	dataPath := filepath.Join(o.outDir, w.name+".data.nt")
	shapesPath := filepath.Join(o.outDir, w.name+".shapes.ttl")
	if err := os.WriteFile(dataPath, []byte(in.data), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(shapesPath, []byte(in.shapes), 0o644); err != nil {
		return nil, err
	}
	ref, err := newReference(in.g, in.h)
	if err != nil {
		return nil, err
	}

	args := []string{"-data", dataPath, "-shapes", shapesPath, "-trace-sample", "0", "-cache", fmt.Sprint(w.cache(fullSize))}
	srv, setups, err := startTimed(bin, args, filepath.Join(o.outDir, w.name+".server.log"))
	if err != nil {
		return nil, err
	}
	defer killRunning()
	gone := func(err error) error {
		return fmt.Errorf("fragserver exited before the run ended, see %s: %w", srv.log.Name(), err)
	}

	sess, err := openSession(srv.addr, in, ref)
	if err != nil {
		return nil, err
	}
	seconds := time.Duration(o.seconds) * time.Second
	if o.trace {
		seconds /= 2 // the replay and the layer timings take at least as long again
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	cpu := func() time.Duration {
		d, _ := srv.cpuTime() // a server that has gone is reported below
		return d
	}
	begin := time.Now()
	rounds := sess.timed(seconds, cpu, func() bool { return !srv.alive() })
	p := newPhase(rounds, time.Since(begin))
	p.before = before
	if p.after, err = srv.scrape(); err != nil {
		return nil, gone(err)
	}
	wrong := sess.close()
	if p.rssPeak, err = srv.peakRSS(); err != nil {
		return nil, gone(err)
	}

	res := &result{workload: w, kinds: &sess.all, samples: map[string]string{}, Metrics: map[string]metricValue{}}
	if wrong != "" {
		res.notes = append(res.notes, "FAILED: "+wrong)
	}
	if err := sess.all.firstErr; err != nil {
		res.notes = append(res.notes, "FAILED: first error: "+err.Error())
	}
	res.Attempted, res.Failed = sess.all.totals()
	if res.Attempted < 1 {
		return nil, errors.New("no request was attempted")
	}

	var values map[string]float64
	if o.trace {
		killRunning() // the replay is in-process and wants both cores
		tr, err := runTrace(w, fullSize, in)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(o.outDir, "trace-"+w.name+".json")
		if err := tr.t.write(path); err != nil {
			return nil, err
		}
		res.Attempted += tr.replayed
		res.Failed += tr.mismatches
		res.notes = append(res.notes, fmt.Sprintf("replayed %d requests in-process, %d differed from the handler's bytes; %d spans in %s",
			tr.replayed, tr.mismatches, len(tr.t.spans), path))
		res.defs, values = perLayer, perLayerValues(w, p, tr)
	} else {
		res.defs = endToEnd
		if values, err = endToEndValues(w, setups, p); err != nil {
			return nil, err
		}
		res.samples["setup_s"] = fmt.Sprintf("(faster half of %d starts)", len(setups))
		res.samples["ops_per_s"] = fmt.Sprintf("(faster half of %d rounds: %d ops in %.1f s; all: %d ops in %.1f s)",
			len(p.rounds), p.quiet.ops(), p.quiet.wall.Seconds(), p.total.ops(), p.total.wall.Seconds())
		res.samples["p50_ms"] = fmt.Sprintf("(/%s, n=%d of %d)", kindNames[w.primary], len(p.quiet.lat[w.primary]), len(p.total.lat[w.primary]))
		res.notes = append(res.notes, secondary(w, p)...)
	}
	for _, d := range res.defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && wrong == ""
	return res, nil
}

// secondary describes what the end-to-end table leaves out: every request
// kind's latency, the time metrics too unsteady on a shared machine to
// carry a bound (see README.md), and the counters a reader checks the
// workload's premise with. Information only; none of it is in the result
// line, and -trace 1 reports it by name.
func secondary(w *workload, p *phase) []string {
	var out []string
	for k, name := range kindNames {
		if lat := p.total.lat[k]; len(lat) > 0 {
			out = append(out, fmt.Sprintf("/%s p50 %.3f ms (n=%d)", name, median(lat), len(lat)))
		}
	}
	if len(p.total.lag) > 0 {
		out = append(out, fmt.Sprintf("update → SSE delta lag p50 %.3f ms (n=%d), carried entries %d",
			median(p.total.lag), len(p.total.lag), p.total.carried))
	}
	out = append(out, fmt.Sprintf("/%s p90 %.3f ms, server CPU %.3f ms/op, peak RSS %.1f MB",
		kindNames[w.primary], orZero(p.quiet.lat[w.primary], 90), ms(p.quiet.cpu)/float64(p.quiet.ops()), float64(p.rssPeak)/(1<<20)))
	hits, misses := p.delta("fragserver_cache_hits_total"), p.delta("fragserver_cache_misses_total")
	out = append(out, fmt.Sprintf("cache hits %.0f misses %.0f evictions %.0f, shed %.0f, GC cycles %.0f",
		hits, misses, p.delta("fragserver_cache_evictions_total"),
		p.delta("fragserver_requests_shed_total"), p.delta("runtime_gc_cycles_total")))
	return out
}
