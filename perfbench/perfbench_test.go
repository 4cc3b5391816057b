package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"wasmcontainers/internal/bench"
)

func TestPercentile(t *testing.T) {
	if v := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Fatalf("empty sample: got %v, want NaN", v)
	}
	if v := median([]float64{7}); v != 7 {
		t.Fatalf("single sample: got %v", v)
	}
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {-1, 1}, {2, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2, 5}) {
		t.Fatalf("percentile reordered its input: %v", xs)
	}
	if v := median([]float64{1, 2, 3, 10}); v != 2.5 {
		t.Fatalf("even-sized median = %v, want 2.5", v)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(nil)
	if s.N != 0 || !math.IsNaN(s.P50) || !math.IsNaN(s.P99) {
		t.Fatalf("empty summary = %+v", s)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	s = summarize(xs)
	if s.N != 101 || s.P50 != 50 || s.P99 != 99 {
		t.Fatalf("summary of 0..100 = %+v", s)
	}
}

func TestRatio(t *testing.T) {
	if r := ratio(3, 0); r != 0 {
		t.Fatalf("zero base: got %v, want 0", r)
	}
	if r := ratio(0, 0); r != 0 {
		t.Fatalf("empty: got %v, want 0", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Fatalf("ratio(1,4) = %v", r)
	}
}

func TestSeedDeterminism(t *testing.T) {
	names := coldZipf().modules
	a, b, c := zipfPicks(7, names, 1.1, 500), zipfPicks(7, names, 1.1, 500), zipfPicks(8, names, 1.1, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different module sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same module sequence")
	}
	counts := map[string]int{}
	for _, m := range a {
		counts[m]++
	}
	if counts[names[0]] <= counts[names[len(names)-1]] {
		t.Fatalf("Zipf head %s (%d picks) not above tail (%d)", names[0], counts[names[0]], counts[names[len(names)-1]])
	}
	for _, m := range zipfPicks(7, []string{"only"}, 0, 10) {
		if m != "only" {
			t.Fatalf("single-module picks gave %q", m)
		}
	}

	s1, s2, s3 := poissonSchedule(7, 1000, time.Second), poissonSchedule(7, 1000, time.Second), poissonSchedule(8, 1000, time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if n := len(s1); n < 850 || n > 1150 {
		t.Fatalf("1000/s for 1s scheduled %d arrivals", n)
	}
	if !sort.SliceIsSorted(s1, func(i, j int) bool { return s1[i] < s1[j] }) || s1[len(s1)-1] >= time.Second {
		t.Fatal("schedule not ascending within its span")
	}

	n := len(bench.AllConfigs)
	o1, o2, o3 := configOrder(7, n, 3), configOrder(7, n, 3), configOrder(8, n, 3)
	if !reflect.DeepEqual(o1, o2) || reflect.DeepEqual(o1, o3) {
		t.Fatal("config order not determined by the seed")
	}
	for c := 0; c < 3; c++ {
		cycle := append([]int(nil), o1[c*n:(c+1)*n]...)
		sort.Ints(cycle)
		for i, v := range cycle {
			if v != i {
				t.Fatalf("cycle %d is not a permutation: %v", c, o1[c*n:(c+1)*n])
			}
		}
	}
	if !reflect.DeepEqual(configOrder(7, n, 2), o1[:2*n]) {
		t.Fatal("a longer order does not extend a shorter one")
	}
}

func TestWindowRates(t *testing.T) {
	at := []time.Duration{100 * time.Millisecond, 900 * time.Millisecond, 1500 * time.Millisecond, 2100 * time.Millisecond}
	got := windowRates(at, 2200*time.Millisecond, time.Second)
	want := []float64{2 / 1.1, 2 / 1.1}
	if len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	if got := windowRates(at[:1], 200*time.Millisecond, time.Second); len(got) != 1 || math.Abs(got[0]-5) > 1e-9 {
		t.Fatalf("short phase: %v, want one window at 5/s", got)
	}
}

func TestOpenWindows(t *testing.T) {
	ms := time.Millisecond
	reqs := []openReq{
		{due: 0, latency: 1 * ms, ok: true},
		{due: 500 * ms, latency: 3 * ms, ok: true},
		{due: 1200 * ms, latency: 1 * ms, ok: true},
		{due: 1700 * ms, ok: false},
	}
	qs, slo := openWindows(reqs, time.Second, 2*ms, 0.5, 1)
	if !reflect.DeepEqual(qs, [][]float64{{2, 1}, {3, 1}}) || !reflect.DeepEqual(slo, []float64{0.5, 0.5}) {
		t.Fatalf("quantiles %v slo %v", qs, slo)
	}
}

func TestLoadExpectedCoversEveryConfig(t *testing.T) {
	want, err := loadExpected("../results")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bench.AllConfigs {
		e := want[cfg.Label]
		if e.free == "" || e.startup == "" {
			t.Errorf("%s: committed figures missing: %+v", cfg.Label, e)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-invoke", "--seconds", "0"},
		{"--workload", "hot-invoke", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// smoke runs one short benchmark run and decodes its result line.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
		"--results", "../results", "--out", t.TempDir()}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line not a result: %v\nstdout:\n%s\nstderr:\n%s", code, err, out.String(), errOut.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, res, errOut.String())
	}
	return res
}

// declared is the metric list BENCHMARK.json declares for the run kind.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

func TestBenchmarkJSONNamesEveryWorkload(t *testing.T) {
	got, _, _ := benchmarkJSON(t)
	sort.Strings(got)
	if !reflect.DeepEqual(got, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, workloadNames())
	}
}

// checkDeclared fails unless res reports exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, res result, want []declared) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: reported %+v (present %v), declared unit %q", d.Name, m, ok, d.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	_, endToEnd, _ := benchmarkJSON(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, "0")
			checkDeclared(t, res, endToEnd)
			for name, m := range res.Metrics {
				// A short run on a slow host (or under -race) may miss
				// every latency limit, so a ratio may read 0.
				if m.Unit == "ratio" && (m.Value < 0 || m.Value > 1) || m.Unit != "ratio" && m.Value <= 0 {
					t.Errorf("%s = %v %s out of range", name, m.Value, m.Unit)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	_, _, perLayer := benchmarkJSON(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			checkDeclared(t, smoke(t, w, "1"), perLayer)
		})
	}
}
