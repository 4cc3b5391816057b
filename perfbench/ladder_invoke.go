package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/gateway"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// Tracks (Chrome trace threads) of the invoke ladder, one per rung, plus
// the concurrent closed-loop phase.
const (
	trackClosed = iota
	trackLoopback
	trackServeHTTP
	trackBridge
	trackRouter
	trackDispatcher
	trackPool
	trackEngine
)

// maxLadderInputs caps the sequential ladder's replayed inputs.
const maxLadderInputs = 20000

// allocSample is how many in-process requests the allocation pass counts.
const allocSample = 1000

// functionConfig is the configuration module m is served with.
func (w invokeWorkload) functionConfig(m string) gateway.FunctionConfig {
	if m == w.fixed.Module || w.lazy == nil {
		return w.fixed
	}
	fc := *w.lazy
	fc.Module = m
	return fc
}

// stack is the serving layers below the bridge, assembled from their public
// constructors the way the gateway assembles them — one engine, warm pool,
// node attachment and dispatcher per module behind one router on one DES
// engine — so rungs 4 to 6 can call each layer directly.
type stack struct {
	des *des.Engine
	rt  *serve.Router
	fns map[string]*stackFn
}

type stackFn struct {
	key  string
	pool *serve.Pool
	disp *serve.Dispatcher
	fc   gateway.FunctionConfig
}

func buildStack(w invokeWorkload) (*stack, error) {
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	node := cluster.Nodes[0]
	tele := obs.New(obs.Config{})
	st := &stack{des: des.NewEngine(), fns: map[string]*stackFn{}}
	tele.Tracer().SetClock(func() int64 { return int64(st.des.Now()) })
	st.rt = serve.NewRouter(st.des, serve.RouterConfig{})
	st.rt.SetObserver(tele)
	for _, m := range w.modules {
		fc := w.functionConfig(m)
		prof, ok := engine.ByName(fc.Profile)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", fc.Profile)
		}
		bin, err := workloads.Binary(m)
		if err != nil {
			return nil, err
		}
		eng := engine.New(prof)
		eng.SetObserver(tele)
		cm, err := eng.Compile(bin)
		if err != nil {
			return nil, err
		}
		pool, err := serve.NewPool(eng, cm, serve.Config{Size: fc.PoolSize, IdleTTL: fc.IdleTTL})
		if err != nil {
			return nil, err
		}
		att, err := node.AttachWarmPool(m + "-" + fc.Profile)
		if err != nil {
			return nil, err
		}
		att.SetObserver(tele)
		// The gateway's node accounting: shared artifacts once per node,
		// the private remainder on the attachment.
		pool.SetMemoryListener(func(total int64) {
			var shared int64
			for _, a := range pool.SharedArtifacts() {
				att.SyncShared(a.Name, a.Bytes)
				shared += a.Bytes
			}
			if total < shared {
				total = shared
			}
			att.Sync(total - shared)
		})
		disp := serve.NewDispatcher(st.des, pool, serve.DispatcherConfig{
			MaxConcurrency: fc.MaxConcurrency,
			QueueDepth:     fc.QueueDepth,
			Policy:         serve.PolicyQueue,
			QueueDeadline:  fc.QueueDeadline,
			Export:         fc.Export,
			Arg:            fc.Arg,
		})
		disp.SetObserver(tele)
		fn := &stackFn{key: fmt.Sprintf("%x", cm.Digest), pool: pool, disp: disp, fc: fc}
		if err := st.rt.Register(fn.key, m, disp); err != nil {
			return nil, err
		}
		st.fns[m] = fn
		for k := 0; k < w.warmup; k++ {
			disp.SubmitTID(0, nil)
			st.des.Run()
		}
	}
	return st, nil
}

// invokeLadder is the traced run of an invoke workload. It measures the
// untraced and traced closed-loop capacity (the tracing overhead), the
// open-loop generator's lateness, then replays the same inputs one at a
// time down rungs 1–7 and reports each layer's self time, ratios from the
// layers' own stats, and the per-request wall budget. own marks the
// workload's own ladder, which supplies the run-validity metrics.
func invokeLadder(o options, w invokeWorkload, rep *report, tr *tracer, budget time.Duration, own bool) ([]budgetRow, error) {
	warm := &tally{}
	lg, err := setUp(w, warm)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		err := lg.close()
		st := lg.gw.Router().Stats()
		rep.check(err == nil && st.IdentityHolds(), "drain: %v, admission identity after drain: %+v", err, st.Aggregate)
	}()
	rep.check(warm.ok == warm.attempted, "warm-up: %d of %d answered 200", warm.ok, warm.attempted)
	picks := zipfPicks(o.seed, w.modules, w.zipfS, 1<<16)
	tele := lg.gw.Telemetry()
	busy, httpReqs := tele.Counter("gateway_bridge_busy_total"), tele.Counter("gateway_http_requests_total")

	// Closed loop, untraced then traced: the ratio of their rates is the
	// tracing overhead; the untraced phase gives the GC share, batching and
	// bridge refusals under the workload's concurrency.
	phase := time.Duration(0.15 * float64(budget))
	untraced := &tally{}
	rs0, busy0, req0, gc0 := lg.gw.Router().Stats(), busy.Value(), httpReqs.Value(), readGC()
	elapsedU, _ := closedLoop(lg, picks, new(atomic.Int64), phase, "untraced", untraced, nil)
	gcFrac := gc0.since()
	rs1, busy1, req1 := lg.gw.Router().Stats(), busy.Value(), httpReqs.Value()
	traced := &tally{}
	tr.tracks[trackClosed] = "closed loop (2 clients)"
	elapsedT, _ := closedLoop(lg, picks, new(atomic.Int64), phase, "traced", traced, tr)
	rpsU := float64(untraced.ok) / elapsedU.Seconds()
	rpsT := float64(traced.ok) / elapsedT.Seconds()
	rep.set("router.batch_mean", ratio(float64(rs1.BatchedRequests-rs0.BatchedRequests), float64(rs1.Batches-rs0.Batches)), "count", int(rs1.Batches-rs0.Batches))
	rep.set("bridge.busy_ratio", ratio(float64(busy1-busy0), float64(req1-req0)), "ratio", int(req1-req0))
	if own {
		rep.set("runtime.gc_cpu_fraction", gcFrac, "ratio", int(untraced.attempted))
		rep.set("trace.overhead_ratio", ratio(rpsU, rpsT), "ratio", int(traced.attempted))
	}

	// Open-loop probe at the workload's rate: how late the generator sends.
	probe := &tally{}
	reqs := openLoop(lg, picks, poissonSchedule(o.seed, w.openRate, time.Duration(0.1*float64(budget))), 0, 0, probe)
	rep.set("loadgen.late_p99_ms", percentile(lateness(reqs), 0.99), "ms", len(reqs))
	for _, t := range []*tally{untraced, traced, probe} {
		rep.check(t.ok == t.attempted && len(t.checkErrs) == 0, "closed/open phase: %d of %d answered 200 %v", t.ok, t.attempted, t.checkErrs)
	}

	// Rungs 1–6, interleaved: input i goes down every rung before input
	// i+1 starts, so a change in host speed during the run shifts every
	// rung alike and cancels out of the differences. The time share fixes
	// how many inputs the ladder replays.
	st, err := buildStack(w)
	if err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	keys := map[string]string{}
	for _, sh := range lg.gw.Router().Stats().Shards {
		keys[sh.Module] = sh.Key
	}
	for id, name := range map[int]string{
		trackLoopback: "1 loopback client", trackServeHTTP: "2 Server.ServeHTTP",
		trackBridge: "3 Bridge.SubmitRouted", trackRouter: "4 Router.Submit + des.Engine.Run",
		trackDispatcher: "5 Dispatcher.SubmitTID + Run", trackPool: "6 Pool.Acquire/ColdStart, Invoke, Release",
	} {
		tr.tracks[id] = name
	}
	c := newClient(lg)
	defer c.close()
	ctx := context.Background()
	var n, tier1 int
	start := time.Now()
	for n < maxLadderInputs && time.Since(start) < time.Duration(0.45*float64(budget)) {
		i, m := n, picks[n]
		req := int64(i)
		t0 := time.Now()
		out := c.invoke(m, fmt.Sprintf("rung1-%d", i))
		tr.add("loopback", trackLoopback, -1, req, t0, time.Now())
		rep.check(out.ok, "rung 1 %s: %v", m, out.checkErr)

		hreq := httptest.NewRequest(http.MethodPost, "/v1/functions/"+m, strings.NewReader("perfbench"))
		rec := httptest.NewRecorder()
		t0 = time.Now()
		lg.gw.ServeHTTP(rec, hreq)
		tr.add("gateway.ServeHTTP", trackServeHTTP, -1, req, t0, time.Now())
		checkRecorded(rep, rec, m)

		t0 = time.Now()
		res, err := lg.gw.Bridge().SubmitRouted(ctx, lg.gw.Router(), keys[m], 1<<40+req)
		tr.add("bridge.SubmitRouted", trackBridge, -1, req, t0, time.Now())
		rep.check(err == nil && res.Admitted && res.Err == nil, "rung 3 %s: %v %v", m, err, res.Err)

		fn := st.fns[m]
		t0 = time.Now()
		err = st.rt.Submit(fn.key, 1+req, func(r serve.RequestResult) { res = r })
		st.des.Run()
		tr.add("router.Submit+Run", trackRouter, -1, req, t0, time.Now())
		rep.check(err == nil && res.Admitted && res.Err == nil, "rung 4 %s: %v %v", m, err, res.Err)

		t0 = time.Now()
		fn.disp.SubmitTID(1<<32+req, func(r serve.RequestResult) { res = r })
		st.des.Run()
		tr.add("dispatcher.SubmitTID+Run", trackDispatcher, -1, req, t0, time.Now())
		rep.check(res.Admitted && res.Err == nil, "rung 5 %s: %v", m, res.Err)

		tier, err := poolRequest(tr, fn, st.des.Now(), req, false)
		rep.check(err == nil, "rung 6 %s: %v", m, err)
		if tier == 1 {
			tier1++
		}
		n++
	}
	rep.set("engine.tier1_ratio", ratio(float64(tier1), float64(n)), "ratio", n)
	allocs, bytes := handlerAllocs(lg.gw, picks[:min(n, allocSample)], rep)
	rep.set("gateway.allocs_per_req", allocs, "count", min(n, allocSample))
	rep.set("gateway.bytes_per_req", bytes, "B", min(n, allocSample))
	if len(tr.byName["pool.ColdStart"]) == 0 {
		// A warm pool never cold-starts on its own: probe the fallback.
		for i := 0; i < min(n, 200); i++ {
			_, err := poolRequest(tr, st.fns[picks[i]], st.des.Now(), int64(n+i), true)
			rep.check(err == nil, "cold-start probe %s: %v", picks[i], err)
		}
	}

	// Rung 7: the engine, exec and wasm calls a cold path makes, per input.
	tr.tracks[trackEngine] = "7 engine / exec / wasm"
	start = time.Now()
	var k int
	for k < n && (k < 20 || time.Since(start) < time.Duration(0.1*float64(budget))) {
		if err := engineRequest(tr, w.functionConfig(picks[k]), picks[k], int64(k)); err != nil {
			rep.check(false, "rung 7 %s: %v", picks[k], err)
		}
		k++
	}

	// Self times: a rung's median minus the median of the rung below.
	r1, r2, r3 := tr.p50("loopback"), tr.p50("gateway.ServeHTTP"), tr.p50("bridge.SubmitRouted")
	r4, r5, r6 := tr.p50("router.Submit+Run"), tr.p50("dispatcher.SubmitTID+Run"), tr.p50("pool.request")
	self := []struct {
		name string
		v    float64
	}{
		{"gateway.http_us", r1 - r2},
		{"gateway.handler_us", r2 - r3},
		{"bridge.hop_us", r3 - r4},
		{"router.submit_us", r4 - r5},
		{"dispatch.self_us", r5 - r6},
	}
	for _, s := range self {
		rep.set(s.name, s.v, "us", n)
	}
	for _, c := range []struct{ metric, span string }{
		{"pool.acquire_us", "pool.Acquire"},
		{"pool.release_us", "pool.Release"},
		{"pool.coldstart_us", "pool.ColdStart"},
		{"engine.invoke_us", "engine.Invoke"},
		{"engine.compile_us", "engine.Compile"},
		{"engine.instantiate_us", "engine.Instantiate"},
		{"wasm.decode_us", "wasm.Decode"},
		{"wasm.validate_us", "wasm.Validate"},
		{"exec.precompile_us", "exec.Precompile"},
		{"exec.tier1_lower_us", "exec.Tier1Lower"},
		{"exec.reset_us", "exec.ResetToBaseline"},
	} {
		rep.set(c.metric, tr.p50(c.span), "us", len(tr.byName[c.span]))
	}
	rep.set("ladder.loopback_us", r1, "us", n)

	// Ratios from the gateway's own stats, over the server's life.
	var ps serve.Stats
	var hits, misses int64
	for _, fn := range lg.gw.Functions() {
		s := fn.Pool().Stats()
		ps.WarmHits += s.WarmHits
		ps.ColdStarts += s.ColdStarts
		ps.Recycled += s.Recycled
		ps.Discarded += s.Discarded
		ps.ResetPages += s.ResetPages
		cs := fn.Engine().CacheStats()
		hits += int64(cs.Hits)
		misses += int64(cs.Misses)
	}
	agg := lg.gw.Router().Stats().Aggregate
	rep.set("dispatch.refused_ratio", ratio(float64(agg.Rejected+agg.Expired+agg.Failed), float64(agg.Submitted)), "ratio", int(agg.Submitted))
	rep.set("pool.reset_pages_per_req", ratio(float64(ps.ResetPages), float64(ps.Recycled+ps.Discarded)), "count", int(ps.Recycled+ps.Discarded))
	rep.set("pool.warm_hit_ratio", ratio(float64(ps.WarmHits), float64(ps.WarmHits+ps.ColdStarts)), "ratio", int(ps.WarmHits+ps.ColdStarts))
	if own {
		rep.set("cache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses))
	}
	attempted := untraced.attempted + traced.attempted + probe.attempted + int64(n)
	ok := untraced.ok + traced.ok + probe.ok + int64(n)
	rep.attempted += attempted
	rep.failed += attempted - ok

	// Per-request wall budget of the sequential ladder.
	rows := []budgetRow{
		{Layer: "gateway.http", P50us: r1 - r2},
		{Layer: "gateway.handler", P50us: r2 - r3},
		{Layer: "bridge.hop", P50us: r3 - r4},
		{Layer: "router.submit", P50us: r4 - r5},
		{Layer: "dispatch.self", P50us: r5 - r6},
		{Layer: "pool.self", P50us: tr.p50("pool.self")},
		{Layer: "engine.invoke", P50us: tr.p50("engine.Invoke")},
	}
	var attributed float64
	for _, r := range rows {
		attributed += r.P50us
	}
	rows = append(rows, budgetRow{Layer: "unattributed", P50us: r1 - attributed})
	for i := range rows {
		rows[i].Share = ratio(rows[i].P50us, r1)
	}
	rep.set("budget.unattributed_us", r1-attributed, "us", n)
	return rows, nil
}

// checkRecorded checks an in-process answer like the loopback client does.
func checkRecorded(rep *report, rec *httptest.ResponseRecorder, module string) {
	var ir gateway.InvokeResponse
	err := json.Unmarshal(rec.Body.Bytes(), &ir)
	rep.check(rec.Code == http.StatusOK && err == nil && ir.Module == module && ir.RequestID == rec.Header().Get("X-Request-Id"),
		"rung 2 %s: status %d body %q", module, rec.Code, rec.Body.String())
}

// handlerAllocs counts heap allocations per in-process request, the
// requests and recorders built beforehand so only the server's work counts
// (the bridge loop goroutine's share included).
func handlerAllocs(gw *gateway.Server, modules []string, rep *report) (allocs, bytes float64) {
	reqs := make([]*http.Request, len(modules))
	recs := make([]*httptest.ResponseRecorder, len(modules))
	for i, m := range modules {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/functions/"+m, strings.NewReader("perfbench"))
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		gw.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	for i, rec := range recs {
		checkRecorded(rep, rec, modules[i])
	}
	k := float64(len(modules))
	return float64(m1.Mallocs-m0.Mallocs) / k, float64(m1.TotalAlloc-m0.TotalAlloc) / k
}

// poolRequest is rung 6 for one input: lease an instance (warm, else cold
// start), invoke the guest, release it. handle(n) bumps a counter in
// linear memory and returns it, so any answer but 1 means state leaked
// from an earlier request through the reset. forceCold skips Acquire.
func poolRequest(tr *tracer, fn *stackFn, now des.Time, req int64, forceCold bool) (tier int, err error) {
	// Forced cold-start probes record under their own names, so only
	// ColdStart joins the rung's samples.
	name := func(s string) string {
		if forceCold && s != "pool.ColdStart" {
			return "probe." + s
		}
		return s
	}
	t0 := time.Now()
	parent := tr.open(name("pool.request"), trackPool, -1, req, t0)
	var wi *serve.WarmInstance
	ok := false
	if !forceCold {
		a := time.Now()
		wi, ok = fn.pool.Acquire(now)
		tr.add("pool.Acquire", trackPool, parent, req, a, time.Now())
	}
	if !ok {
		a := time.Now()
		wi, err = fn.pool.ColdStart()
		tr.add("pool.ColdStart", trackPool, parent, req, a, time.Now())
		if err != nil {
			return 0, err
		}
	}
	a := time.Now()
	res, err := wi.Invoke(fn.fc.Export, exec.I32(fn.fc.Arg))
	invoked := time.Now()
	tr.add(name("engine.Invoke"), trackPool, parent, req, a, invoked)
	r := time.Now()
	fn.pool.Release(wi, now)
	end := time.Now()
	tr.add(name("pool.Release"), trackPool, parent, req, r, end)
	tr.close(parent, name("pool.request"), t0, end)
	if !forceCold {
		// The pool's own share of the request: everything but the guest.
		tr.mu.Lock()
		tr.byName["pool.self"] = append(tr.byName["pool.self"], float64(end.Sub(t0)-invoked.Sub(a))/1e3)
		tr.mu.Unlock()
	}
	return res.Tier, checkHandle(res.Values, err)
}

func checkHandle(vals []exec.Value, err error) error {
	if err != nil {
		return err
	}
	if len(vals) != 1 || exec.AsI32(vals[0]) != 1 {
		return fmt.Errorf("handle returned %v, want [1]: state survived the reset", vals)
	}
	return nil
}

// engineRequest is rung 7 for one input: the wasm, exec and engine calls a
// module takes from bytes to a served request, each timed on its own.
func engineRequest(tr *tracer, fc gateway.FunctionConfig, module string, req int64) error {
	bin, err := workloads.Binary(module)
	if err != nil {
		return err
	}
	prof, ok := engine.ByName(fc.Profile)
	if !ok {
		return fmt.Errorf("unknown profile %q", fc.Profile)
	}
	t0 := time.Now()
	parent := tr.open("engine.request", trackEngine, -1, req, t0)
	step := func(name string, fn func() error) error {
		a := time.Now()
		err := fn()
		tr.add(name, trackEngine, parent, req, a, time.Now())
		return err
	}
	var m *wasm.Module
	var mc *exec.ModuleCode
	var cm *engine.CompiledModule
	var inst *engine.Instance
	var res engine.InvokeResult
	eng := engine.New(prof) // a fresh engine: its module cache misses
	for _, s := range []struct {
		name string
		fn   func() error
	}{
		{"wasm.Decode", func() (err error) { m, err = wasm.Decode(bin); return }},
		{"wasm.Validate", func() error { return wasm.Validate(m) }},
		{"exec.Precompile", func() (err error) { mc, err = exec.Precompile(m); return }},
		{"exec.Tier1Lower", func() error { mc.EnsureTier1(); return nil }},
		{"engine.Compile", func() (err error) { cm, err = eng.Compile(bin); return }},
		{"engine.Instantiate", func() (err error) { inst, err = eng.Instantiate(cm); return }},
		{"engine.InvokeFresh", func() (err error) { res, err = inst.Invoke(fc.Export, exec.I32(fc.Arg)); return }},
		{"exec.ResetToBaseline", func() error { inst.ResetToBaseline(); return nil }},
	} {
		if err := step(s.name, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	tr.close(parent, "engine.request", t0, time.Now())
	return checkHandle(res.Values, nil)
}
