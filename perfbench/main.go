// Command perfbench is the repository's benchmark: it serves the paper's
// Wasm modules through the real gateway stack (and deploys them on the
// simulated cluster), measures the end-to-end metrics listed in
// BENCHMARK.json, checks every output, and prints one JSON result line.
// With --trace 1 it instead replays the workload's inputs down a ladder of
// per-layer calls and reports per-layer wall-clock metrics plus a Chrome
// trace. See README.md in this directory.
//
// Usage:
//
//	perfbench --workload hot-invoke|cold-zipf|density-deploy --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are one run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	resDir   string // committed results/ tables for the density checks
	outDir   string // trace and budget files
	out      io.Writer
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcome: metrics, sample counts for the
// human-readable table, and output-check failures.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	samples           map[string]int
	checks            []string // failed output checks (the first maxChecks)
	nChecks           int      // all failed output checks
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// maxChecks bounds the failed-check messages kept: one broken layer fails
// every request, and the first few say why.
const maxChecks = 20

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.nChecks++
	if len(r.checks) < maxChecks {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// registry maps each workload name to its end-to-end and traced runs.
var registry = map[string]struct {
	run    func(options) (*report, error)
	traced func(options) (*report, error)
}{
	"hot-invoke":     {run: func(o options) (*report, error) { return runInvoke(o, hotInvoke()) }, traced: func(o options) (*report, error) { return traceWorkload(o, hotInvoke(), false) }},
	"cold-zipf":      {run: func(o options) (*report, error) { return runInvoke(o, coldZipf()) }, traced: func(o options) (*report, error) { return traceWorkload(o, coldZipf(), false) }},
	"density-deploy": {run: runDensity, traced: func(o options) (*report, error) { return traceWorkload(o, hotInvoke(), true) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hot-invoke, cold-zipf or density-deploy")
	seed := fs.Int64("seed", 1, "seed of every random input")
	seconds := fs.Float64("seconds", 10, "measured wall seconds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end run")
	resDir := fs.String("results", "results", "directory of the committed results tables")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the traced run's trace and budget files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := registry[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, resDir: *resDir, outDir: *outDir, out: stdout}
	fmt.Fprintf(stdout, "provenance: %s\n", provenance(opts))
	runFn := w.run
	if opts.trace {
		runFn = w.traced
	}
	rep, err := runFn(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	printTable(stdout, rep)
	for _, c := range rep.checks {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", c)
	}
	if rep.nChecks > len(rep.checks) {
		fmt.Fprintf(stderr, "perfbench: ... %d more failed checks\n", rep.nChecks-len(rep.checks))
	}
	res := result{Correct: rep.nChecks == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: nothing was attempted")
		return 1
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s has no value\n", name)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints every metric with its unit and sample count.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %14s  %-7s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-28s %14.4f  %-7s %d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	fmt.Fprintf(w, "attempted %d, failed %d (fail_ratio %.4f)\n",
		rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
}

// provenance records what produced a result: the seed, the parallelism the
// Go runtime used, the machine, the toolchain and the source revision.
func provenance(o options) string {
	p := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the Go toolchain stamped into the binary
// ("unknown" when it was built outside a git work tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// writeOut writes one artifact file under dir.
func writeOut(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// heapMiB is the live Go heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timed runs fn and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
