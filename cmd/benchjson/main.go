// Command benchjson runs the repository's benchmark suite and writes one
// machine-readable snapshot per invocation, so benchmark results form a
// trajectory that scripts can diff across commits instead of a wall of
// text in a terminal scrollback.
//
// Usage:
//
//	benchjson [-bench <regexp>] [-benchtime 2s] [-count 1] [-pkg .] [-dir .]
//	benchjson -smoke [-bench <regexp>]
//
// It shells out to `go test -run ^$ -bench ... -benchmem`, parses the
// standard benchmark output, and writes BENCH_<n>.json into -dir (the
// repository root by default — the same place the trajectory is read
// from), where <n> is one past the highest existing snapshot index,
// starting at 1. Each snapshot
// carries the git SHA, the Go version, the benchtime, and per-benchmark
// name, iterations, ns/op, B/op and allocs/op.
//
// -smoke runs every benchmark once (-benchtime 1x), checks the output
// parses, and prints the resulting Snapshot JSON to stdout instead of
// writing a file — the CI hook that keeps the benchmarks compiling and the
// parser honest without paying for a full run. Smoke and full runs emit
// the same schema (including custom b.ReportMetric units under metrics),
// so trajectory tooling can consume either.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line. Custom b.ReportMetric series
// (any unit the standard pairs don't claim, e.g. triples/s from the
// scale load benchmark) are preserved under Metrics.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the schema of one BENCH_<n>.json file.
type Snapshot struct {
	GitSHA    string `json:"git_sha"`
	GoVersion string `json:"go_version"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	StartedAt string `json:"started_at"`
	// Meta carries run conditions the benchmark names alone don't encode
	// (-meta key=value, repeatable): typically the worker counts and triple
	// scale of a run.
	Meta    map[string]string `json:"meta,omitempty"`
	Results []Result          `json:"results"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark name regexp, as for go test -bench")
	benchtime := flag.String("benchtime", "2s", "per-benchmark budget, as for go test -benchtime")
	count := flag.Int("count", 1, "runs per benchmark, as for go test -count")
	pkg := flag.String("pkg", ".", "package pattern holding the benchmarks")
	dir := flag.String("dir", ".", "output directory for BENCH_<n>.json snapshots (default: repo root, where the trajectory is read)")
	smoke := flag.Bool("smoke", false, "run each benchmark once, verify the output parses, write nothing")
	meta := map[string]string{}
	flag.Func("meta", "key=value annotation stored in the snapshot's meta block (repeatable; e.g. -meta workers=2 -meta triples=10000000)", func(kv string) error {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return fmt.Errorf("want key=value, got %q", kv)
		}
		meta[k] = v
		return nil
	})
	flag.Parse()

	if *smoke {
		*benchtime = "1x"
	}
	out, err := runBenchmarks(*bench, *benchtime, *count, *pkg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n%s", err, out)
		os.Exit(1)
	}
	results := parseBenchOutput(string(out))
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark results matched -bench %q:\n%s", *bench, out)
		os.Exit(1)
	}

	snap := Snapshot{
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		Bench:     *bench,
		Benchtime: *benchtime,
		StartedAt: time.Now().UTC().Format(time.RFC3339),
		Results:   results,
	}
	if len(meta) > 0 {
		snap.Meta = meta
	}
	if *smoke {
		// Same Snapshot schema as a full run — custom metrics included —
		// printed to stdout rather than written into the trajectory.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: smoke OK, %d benchmark(s) parsed\n", len(results))
		return
	}
	path, err := writeSnapshot(*dir, snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks, git %s)\n", path, len(results), snap.GitSHA)
}

func runBenchmarks(bench, benchtime string, count int, pkg string) ([]byte, error) {
	gocmd := os.Getenv("GO")
	if gocmd == "" {
		gocmd = "go"
	}
	// -timeout=0: the per-benchmark budget is benchtime; the binary-wide
	// default of 10m would kill long scale runs (BenchmarkScale10M).
	cmd := exec.Command(gocmd, "test", "-run", "^$", "-timeout", "0",
		"-bench", bench, "-benchmem", "-benchtime", benchtime,
		"-count", strconv.Itoa(count), pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	return buf.Bytes(), err
}

// benchLine matches standard `go test -bench -benchmem` result lines:
//
//	BenchmarkName/sub-8  100  123456 ns/op  789 B/op  12 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parseBenchOutput extracts every benchmark result line from go test
// output, ignoring the surrounding goos/pkg/PASS chatter.
func parseBenchOutput(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: iters}
		// The tail is (value, unit) pairs; units beyond the standard three
		// are custom b.ReportMetric series, kept under Metrics.
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v := fields[i]
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			default:
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
					continue // non-finite values would break JSON encoding
				}
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[fields[i+1]] = f
			}
		}
		results = append(results, r)
	}
	return results
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// nextIndex returns one past the highest BENCH_<n>.json index in dir, so
// snapshots order by filename into a trajectory. The first snapshot is
// BENCH_1.json.
func nextIndex(dir string) int {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	next := 1
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

func writeSnapshot(dir string, snap Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", nextIndex(dir)))
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
