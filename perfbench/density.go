package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wasmcontainers/internal/bench"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/simos"
)

// cellPods is the density of one deploy cell: the paper's largest
// deployment size.
const cellPods = 400

// cellLimit is the wall time a cell must beat to count toward slo_attain on
// density-deploy: about three times the slowest configuration on a quiet
// reference host, so only a cell that stalls misses it.
const cellLimit = 500 * time.Millisecond

// cell is one 400-pod deployment on a fresh simulated cluster, as
// bench.MeasureDeployment performs it, split at the layer boundaries the
// traced run times.
type cell struct {
	cfg        bench.RuntimeConfig
	metricsMiB float64 // metrics-server vantage, MiB per container
	freeMiB    float64 // free vantage, MiB per container
	startupS   float64 // simulated time until the last workload started
	cluster    *k8s.Cluster
}

// deployCell deploys cellPods pods of cfg to quiescence. spanFn, when set,
// receives the wall interval of the two k8s calls. It repeats
// bench.MeasureDeployment step by step because the traced run times those
// steps and the heap is measured with the cluster still live.
func deployCell(cfg bench.RuntimeConfig, spanFn func(name string, start, end time.Time)) (cell, error) {
	c := cell{cfg: cfg}
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return c, err
	}
	node := cluster.Nodes[0]
	if err := node.Runtime.PrePull(cfg.Image); err != nil {
		return c, err
	}
	freeBaseline := node.OS.UsedBeyondIdle()
	t0 := time.Now()
	pods, err := cluster.Deploy(k8s.DeployOptions{
		NamePrefix:       cfg.RuntimeClass,
		RuntimeClassName: cfg.RuntimeClass,
		Image:            cfg.Image,
		Replicas:         cellPods,
	})
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	cluster.Run()
	t2 := time.Now()
	if spanFn != nil {
		spanFn("k8s.Deploy", t0, t1)
		spanFn("k8s.Run", t1, t2)
	}
	last, err := cluster.LastStartTime(pods)
	if err != nil {
		return c, fmt.Errorf("%s: %w", cfg.Label, err)
	}
	c.metricsMiB = float64(cluster.Metrics.TotalWorkloadBytes()) / float64(simos.MiB) / cellPods
	c.freeMiB = float64(node.OS.UsedBeyondIdle()-freeBaseline) / float64(simos.MiB) / cellPods
	c.startupS = float64(last) / 1e9
	c.cluster = cluster
	return c, nil
}

// expected holds the committed 400-container figures of one configuration,
// as printed (two decimals). Empty strings are figures no table commits.
type expected struct{ metrics, free, startup string }

// loadExpected reads the committed fig3–fig7 400-container columns and fig9
// from the results directory.
func loadExpected(dir string) (map[string]expected, error) {
	out := map[string]expected{}
	type table struct {
		Columns []string
		Rows    [][]string
	}
	set := func(label, field, v, fig string) error {
		e := out[label]
		p := map[string]*string{"metrics": &e.metrics, "free": &e.free, "startup": &e.startup}[field]
		if *p != "" && *p != v {
			return fmt.Errorf("%s: %s %s %q disagrees with %q", fig, label, field, v, *p)
		}
		*p = v
		out[label] = e
		return nil
	}
	for _, f := range []struct{ fig, field string }{
		{"fig3", "metrics"}, {"fig4", "free"}, {"fig5", "free"},
		{"fig6", "metrics"}, {"fig7", "free"}, {"fig9", "startup"},
	} {
		b, err := os.ReadFile(filepath.Join(dir, f.fig+".json"))
		if err != nil {
			return nil, err
		}
		var t table
		if err := json.Unmarshal(b, &t); err != nil {
			return nil, fmt.Errorf("%s: %w", f.fig, err)
		}
		col := len(t.Columns) - 1 // the 400-container column (fig9: the only value)
		for _, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return nil, fmt.Errorf("%s: ragged row %v", f.fig, row)
			}
			if err := set(row[0], f.field, row[col], f.fig); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checkCell compares a cell against the committed figures at their printed
// precision.
func checkCell(rep *report, c cell, want map[string]expected) {
	e, ok := want[c.cfg.Label]
	rep.check(ok && e.free != "" && e.startup != "", "%s: no committed free/startup figures", c.cfg.Label)
	for _, f := range []struct {
		name string
		got  float64
		want string
	}{{"metrics MiB/ctr", c.metricsMiB, e.metrics}, {"free MiB/ctr", c.freeMiB, e.free}, {"startup s", c.startupS, e.startup}} {
		if f.want == "" {
			continue
		}
		got := fmt.Sprintf("%.2f", f.got)
		rep.check(got == f.want, "%s %s = %s, committed %s", c.cfg.Label, f.name, got, f.want)
	}
}

// setUpCluster is density-deploy's set-up: a fresh cluster with both
// benchmark images pulled and every configuration's path (runtime class,
// handler, engine library, module compile into the node cache) exercised by
// a small deployment, ready to take a cell.
func setUpCluster() (*k8s.Cluster, error) {
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	for _, img := range []string{bench.WasmImage, bench.PythonImage} {
		if err := cluster.Nodes[0].Runtime.PrePull(img); err != nil {
			return nil, err
		}
	}
	for _, cfg := range bench.AllConfigs {
		pods, err := cluster.Deploy(k8s.DeployOptions{
			NamePrefix:       "setup-" + cfg.RuntimeClass,
			RuntimeClassName: cfg.RuntimeClass,
			Image:            cfg.Image,
			Replicas:         setupPods,
		})
		if err != nil {
			return nil, err
		}
		cluster.Run()
		if _, err := cluster.LastStartTime(pods); err != nil {
			return nil, fmt.Errorf("set-up %s: %w", cfg.Label, err)
		}
	}
	return cluster, nil
}

// setupPods is the size of each set-up deployment.
const setupPods = 10

// runDensity is density-deploy's end-to-end run: whole cycles of the nine
// configurations in seeded order, each cell a fresh 400-pod cluster, until
// the measured time is spent. A cycle is the reporting window: each metric
// is the median over cycles of the cycle's figure, so every configuration
// weighs the same in every window.
func runDensity(o options) (*report, error) {
	rep := newReport()
	want, err := loadExpected(o.resDir)
	if err != nil {
		return nil, fmt.Errorf("committed results: %w", err)
	}
	var setupTimes []float64
	for i := 0; i < setupReps; i++ {
		d, err := timed(func() error { _, err := setUpCluster(); return err })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	rep.set("setup_s", median(setupTimes), "s", len(setupTimes))

	n := len(bench.AllConfigs)
	var rates, p50s, p99s, slos []float64
	var cells int
	// ours is the most recent cell of the paper's configuration: the heap
	// is measured with it live, the same cluster shape whatever the seed.
	var ours cell
	start := time.Now()
	budget := seconds(o.seconds)
	for cycle := 0; cycle == 0 || time.Since(start) < budget; cycle++ {
		var cellMs []float64
		inLimit := 0
		c0 := time.Now()
		for _, idx := range configOrder(o.seed, n, cycle+1)[cycle*n:] {
			cfg := bench.AllConfigs[idx]
			rep.attempted++
			var c cell
			d, err := timed(func() error {
				var err error
				c, err = deployCell(cfg, nil)
				return err
			})
			if err != nil {
				rep.failed++
				rep.check(false, "cell %s: %v", cfg.Label, err)
				continue
			}
			checkCell(rep, c, want)
			if cfg.Label == bench.OursConfig.Label {
				ours = c
			}
			cellMs = append(cellMs, float64(d)/1e6)
			if d <= cellLimit {
				inLimit++
			}
		}
		cells += len(cellMs)
		s := summarize(cellMs)
		rates = append(rates, float64(len(cellMs)*cellPods)/time.Since(c0).Seconds())
		p50s, p99s = append(p50s, s.P50), append(p99s, s.P99)
		slos = append(slos, float64(inLimit)/float64(n))
	}
	rep.set("rps", median(rates), "1/s", cells*cellPods)
	rep.set("p50_ms", median(p50s), "ms", cells)
	fmt.Fprintf(o.out, "p99_ms %.4f (median over %d cycles, %d cells)\n", median(p99s), len(p99s), cells)
	rep.set("slo_attain", median(slos), "ratio", int(rep.attempted))
	rep.set("heap_mib", heapMiB(), "MiB", 1)
	rep.check(ours.cluster != nil && ours.cluster.RunningPods() == cellPods, "the last %s cell did not leave %d running pods", bench.OursConfig.Label, cellPods)
	fmt.Fprintf(o.out, "density: %d cycles of %d cells of %d pods\n", len(rates), n, cellPods)
	return rep, nil
}
