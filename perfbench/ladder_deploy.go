package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wasmcontainers/internal/bench"
	"wasmcontainers/internal/core"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/oci"
	"wasmcontainers/internal/pylite"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// Tracks of the deploy ladder.
const (
	trackCell = 10 + iota
	trackCore
	trackWasi
	trackPylite
	trackSimos
)

// minPerRung is the fewest calls any deploy-ladder rung times, however
// short its time share.
const minPerRung = 20

// deployLadder is the traced run of the density path. Cells in the seeded
// configuration order are deployed untraced and then traced (the two rates
// give the tracing overhead), with spans around k8s Deploy and Run; then
// the layers beneath are called directly: crun Create+Start of one Wasm
// container against a node-level module cache, WASI RunModule, the pylite
// VM, and simos Spawn+MapPrivate with a full node resident. own marks the
// workload's own ladder, which supplies the run-validity metrics.
func deployLadder(o options, rep *report, tr *tracer, budget time.Duration, own bool) error {
	want, err := loadExpected(o.resDir)
	if err != nil {
		return fmt.Errorf("committed results: %w", err)
	}
	n := len(bench.AllConfigs)
	order := configOrder(o.seed, n, 64)
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }

	// Top rung: whole cells, untraced then traced on the same configs.
	var k int
	gc0 := readGC()
	start := time.Now()
	for k < len(order) && (k == 0 || time.Since(start) < share(0.3)) {
		c, err := deployCell(bench.AllConfigs[order[k]], nil)
		if err != nil {
			return err
		}
		checkCell(rep, c, want)
		k++
	}
	elapsedU := time.Since(start)
	gcFrac := gc0.since()
	tr.tracks[trackCell] = "cell: k8s Deploy + Run (400 pods)"
	start = time.Now()
	for i := 0; i < k; i++ {
		t0 := time.Now()
		parent := tr.open("cell", trackCell, -1, int64(i), t0)
		c, err := deployCell(bench.AllConfigs[order[i]], func(name string, s, e time.Time) {
			tr.add(name, trackCell, parent, int64(i), s, e)
		})
		tr.close(parent, "cell", t0, time.Now())
		if err != nil {
			return err
		}
		checkCell(rep, c, want)
	}
	elapsedT := time.Since(start)
	rep.set("k8s.deploy_ms", tr.p50("k8s.Deploy")/1e3, "ms", k)
	rep.set("k8s.run_ms", tr.p50("k8s.Run")/1e3, "ms", k)
	if own {
		rep.set("runtime.gc_cpu_fraction", gcFrac, "ratio", k)
		rep.set("trace.overhead_ratio", ratio(elapsedT.Seconds(), elapsedU.Seconds()), "ratio", k)
		rep.attempted += int64(2 * k)
	}

	hits, misses, err := coreRung(rep, tr, order, share(0.1))
	if err != nil {
		return err
	}
	if own {
		rep.set("cache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses))
	}
	if err := wasiRung(rep, tr, share(0.1)); err != nil {
		return err
	}
	pyliteRung(rep, tr, share(0.1))
	return simosRung(rep, tr, share(0.1))
}

// wasmBundle is a one-container OCI bundle of the paper's minimal Wasm
// service.
func wasmBundle(id string, bin []byte) (*oci.Bundle, error) {
	rootfs := vfs.New()
	if err := rootfs.WriteFile("/app.wasm", bin); err != nil {
		return nil, err
	}
	spec := &oci.Spec{
		Version:     oci.SpecVersion,
		Process:     oci.Process{Args: []string{"/app.wasm"}, Cwd: "/"},
		Root:        oci.Root{Path: "rootfs"},
		Annotations: map[string]string{oci.WasmVariantAnnotation: "compat"},
		Linux:       &oci.Linux{CgroupsPath: "/kubepods/" + id, Namespaces: oci.DefaultNamespaces()},
	}
	return oci.NewBundle("/bundles/"+id, spec, rootfs)
}

// coreRung starts Wasm containers through crun, one engine per crun
// configuration in the seeded order, all resolving modules against one
// node-level cache as containerd wires them. A node holds at most cellPods
// containers before the rung moves to a fresh node (and cache). It returns
// the caches' summed hits and misses.
func coreRung(rep *report, tr *tracer, order []int, share time.Duration) (hits, misses int64, err error) {
	bin, err := workloads.Binary("minimal-service")
	if err != nil {
		return 0, 0, err
	}
	var crunOrder []bench.RuntimeConfig
	for _, idx := range order {
		if cfg := bench.AllConfigs[idx]; cfg.Wasm && strings.HasPrefix(cfg.RuntimeClass, "crun-") {
			crunOrder = append(crunOrder, cfg)
		}
	}
	tr.tracks[trackCore] = "core: crun Create + Start"
	var node *simos.Node
	var modCache *cache.Cache
	var cruns map[string]*core.Crun
	flush := func() {
		if modCache != nil {
			s := modCache.Stats()
			hits += int64(s.Hits)
			misses += int64(s.Misses)
		}
	}
	start := time.Now()
	for i := 0; i < minPerRung || time.Since(start) < share; i++ {
		if i%cellPods == 0 {
			flush()
			node = simos.NewNode(simos.DefaultNodeConfig())
			modCache = cache.New(engine.DefaultModuleCacheBytes)
			cruns = map[string]*core.Crun{}
		}
		cfg := crunOrder[i%len(crunOrder)]
		cr, ok := cruns[cfg.RuntimeClass]
		if !ok {
			prof, found := engine.ByName(strings.TrimPrefix(cfg.RuntimeClass, "crun-"))
			if !found {
				return 0, 0, fmt.Errorf("no engine for %s", cfg.RuntimeClass)
			}
			cr = core.New(core.Config{Node: node, Engine: prof, ModuleCache: modCache})
			cruns[cfg.RuntimeClass] = cr
		}
		id := fmt.Sprintf("ctr-%d", i)
		b, err := wasmBundle(id, bin)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		err = cr.Create(id, b)
		var sr *oci.StartReport
		if err == nil {
			sr, err = cr.Start(id)
		}
		tr.add("core.Create+Start", trackCore, -1, int64(i), t0, time.Now())
		rep.check(err == nil && sr.ExitCode == 0, "crun %s %s: %v", cfg.RuntimeClass, id, err)
	}
	flush()
	rep.set("core.start_us", tr.p50("core.Create+Start"), "us", len(tr.byName["core.Create+Start"]))
	return hits, misses, nil
}

// wasiRung runs the minimal service's _start through WASI on a shared
// precompiled module, a fresh store each time.
func wasiRung(rep *report, tr *tracer, share time.Duration) error {
	bin, err := workloads.Binary("minimal-service")
	if err != nil {
		return err
	}
	cm, err := engine.New(engine.WAMR).Compile(bin)
	if err != nil {
		return err
	}
	tr.tracks[trackWasi] = "wasi: P1.RunModule"
	start := time.Now()
	for i := 0; i < minPerRung || time.Since(start) < share; i++ {
		w := wasi.New(wasi.Config{Args: []string{"/app.wasm"}, Stdout: io.Discard})
		store := exec.NewStore(exec.Config{})
		t0 := time.Now()
		res, err := w.RunModule(store, cm.Code)
		tr.add("wasi.RunModule", trackWasi, -1, int64(i), t0, time.Now())
		rep.check(err == nil && res.ExitCode == 0, "wasi run %d: exit %d, %v", i, res.ExitCode, err)
	}
	rep.set("wasi.run_us", tr.p50("wasi.RunModule"), "us", len(tr.byName["wasi.RunModule"]))
	return nil
}

// pyliteRung runs the Python container's service script in a fresh VM.
func pyliteRung(rep *report, tr *tracer, share time.Duration) {
	tr.tracks[trackPylite] = "pylite: VM.RunSource"
	start := time.Now()
	for i := 0; i < minPerRung || time.Since(start) < share; i++ {
		vm := pylite.NewVM(io.Discard)
		t0 := time.Now()
		_, err := vm.RunSource(workloads.MinimalServicePy)
		tr.add("pylite.RunSource", trackPylite, -1, int64(i), t0, time.Now())
		rep.check(err == nil, "pylite run %d: %v", i, err)
	}
	rep.set("pylite.run_us", tr.p50("pylite.RunSource"), "us", len(tr.byName["pylite.RunSource"]))
}

// simosRung spawns and charges one process on a node already holding a
// full cell of resident processes, then retires it.
func simosRung(rep *report, tr *tracer, share time.Duration) error {
	const charge = 4 * simos.MiB
	node := simos.NewNode(simos.DefaultNodeConfig())
	for i := 0; i < cellPods; i++ {
		p, err := node.Spawn(fmt.Sprintf("resident-%d", i), fmt.Sprintf("/kubepods/pod-%d", i))
		if err != nil {
			return err
		}
		if err := p.MapPrivate(charge); err != nil {
			return err
		}
	}
	tr.tracks[trackSimos] = "simos: Spawn + MapPrivate (400 resident)"
	start := time.Now()
	for i := 0; i < minPerRung || time.Since(start) < share; i++ {
		t0 := time.Now()
		p, err := node.Spawn("probe", "/kubepods/probe")
		if err == nil {
			err = p.MapPrivate(charge)
		}
		tr.add("simos.Spawn+MapPrivate", trackSimos, -1, int64(i), t0, time.Now())
		if err != nil {
			return err
		}
		p.Exit()
	}
	rep.set("simos.map_private_us", tr.p50("simos.Spawn+MapPrivate"), "us", len(tr.byName["simos.Spawn+MapPrivate"]))
	return nil
}
