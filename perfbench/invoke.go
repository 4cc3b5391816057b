package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/gateway"
)

// clients is the load generator's parallelism: one goroutine and one
// keep-alive connection each, no more than the cores of the reference host.
const clients = 2

// setupReps is how many times a run builds its server; setup_s is the
// median.
const setupReps = 9

// Layout of an end-to-end invoke run: the measured time is cut into cycles
// of about cycleLength, each a closed-loop window (closedShare of the cycle)
// followed by an open-loop window (the rest, long enough for ten samples
// beyond the p99 at the workloads' rates). Interleaving the two spreads
// every metric's windows over the whole run, so a slow stretch of the host
// lands on a few windows of each instead of on one phase.
const (
	closedShare = 0.4
	cycleLength = 2500 * time.Millisecond
)

// invokeWorkload is one function mix served over loopback.
type invokeWorkload struct {
	name string
	// fixed is registered at construction; lazy (when set) creates every
	// other module on its first request.
	fixed gateway.FunctionConfig
	lazy  *gateway.FunctionConfig
	// modules lists every module the workload invokes, most popular first;
	// zipfS is the popularity exponent when there is more than one.
	modules []string
	zipfS   float64
	// warmup is the number of requests each module receives during set-up:
	// enough for the hotness policy to tier every module up.
	warmup int
	// openRate is the open-loop arrival rate (req/s), about half the
	// closed-loop capacity measured on the reference host; sloLimit is the
	// wall latency a request must beat to count toward slo_attain.
	openRate float64
	sloLimit time.Duration
}

// hotInvoke serves one warm-pooled function: guest execution dominates.
func hotInvoke() invokeWorkload {
	fc := gateway.DefaultFunction() // request-handler, wamr, Arg 500, pool 4, concurrency 4
	return invokeWorkload{
		name:     "hot-invoke",
		fixed:    fc,
		modules:  []string{fc.Module},
		warmup:   32,
		openRate: 1000,
		sloLimit: 10 * time.Millisecond,
	}
}

// coldZipfModules is the number of request-handler variants cold-zipf
// serves, each its own module digest, pool and router shard.
const coldZipfModules = 64

// coldZipf serves 64 cold-only variants with Zipf popularity: every request
// pays instantiation and memory accounting, guest work is small.
func coldZipf() invokeWorkload {
	tmpl := gateway.DefaultFunction()
	tmpl.PoolSize = 0
	tmpl.MaxConcurrency = 4
	tmpl.Arg = 16
	names := make([]string, coldZipfModules)
	for i := range names {
		names[i] = fmt.Sprintf("request-handler-v%d", i)
	}
	fixed := tmpl
	fixed.Module = names[0]
	return invokeWorkload{
		name:     "cold-zipf",
		fixed:    fixed,
		lazy:     &tmpl,
		modules:  names,
		zipfS:    1.1,
		warmup:   9,
		openRate: 1000,
		sloLimit: 10 * time.Millisecond,
	}
}

// liveGateway is one gateway server behind a loopback listener.
type liveGateway struct {
	gw      *gateway.Server
	srv     *http.Server
	base    string // URL prefix of the invoke endpoint
	serveWG sync.WaitGroup
	// answered counts requests the client saw settled by a dispatcher (the
	// response carries X-Trace-Sampled): the client-side counterpart of the
	// router's Submitted.
	answered atomic.Int64
}

func startGateway(w invokeWorkload) (*liveGateway, error) {
	cfg := gateway.Config{
		Functions:    []gateway.FunctionConfig{w.fixed},
		LazyTemplate: w.lazy,
		Bridge:       gateway.BridgeConfig{Dilation: 0},
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	gw.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Bridge().Stop()
		return nil, err
	}
	lg := &liveGateway{
		gw:   gw,
		srv:  &http.Server{Handler: gw},
		base: fmt.Sprintf("http://%s/v1/functions/", ln.Addr()),
	}
	lg.serveWG.Add(1)
	go func() {
		defer lg.serveWG.Done()
		lg.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return lg, nil
}

// close drains the gateway (admission identity becomes authoritative), then
// stops the HTTP server and waits for its goroutine.
func (lg *liveGateway) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := lg.gw.Shutdown(ctx)
	srvErr := lg.srv.Shutdown(ctx)
	lg.serveWG.Wait()
	if drainErr != nil {
		return fmt.Errorf("gateway drain: %w", drainErr)
	}
	return srvErr
}

// client is one load-generator connection.
type client struct {
	hc *http.Client
	lg *liveGateway
}

func newClient(lg *liveGateway) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, lg: lg}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one request as the client saw it. checkErr reports a 200 whose
// body or headers are wrong — an output check failure, not a refused
// request.
type outcome struct {
	ok       bool
	checkErr error
}

// invoke posts one request with a client-chosen request id and checks the
// answer: a 200 must decode as InvokeResponse naming the requested module
// and echoing the id, in the body and in X-Request-Id.
func (c *client) invoke(module, reqID string) outcome {
	req, err := http.NewRequest(http.MethodPost, c.lg.base+module, strings.NewReader("perfbench"))
	if err != nil {
		return outcome{checkErr: err}
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Sampled") != "" {
		c.lg.answered.Add(1)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{}
	}
	var ir gateway.InvokeResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		return outcome{checkErr: fmt.Errorf("%s %s: body %q: %v", module, reqID, body, err)}
	}
	if ir.Module != module || ir.RequestID != reqID || resp.Header.Get("X-Request-Id") != reqID {
		return outcome{checkErr: fmt.Errorf("%s %s: answered module %q id %q header id %q",
			module, reqID, ir.Module, ir.RequestID, resp.Header.Get("X-Request-Id"))}
	}
	return outcome{ok: true}
}

// tally counts one phase's outcomes.
type tally struct {
	mu        sync.Mutex
	attempted int64
	ok        int64
	checkErrs []error
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if o.ok {
		t.ok++
	}
	if o.checkErr != nil && len(t.checkErrs) < 5 {
		t.checkErrs = append(t.checkErrs, o.checkErr)
	}
}

// setUp builds a server and brings it to steady state: every module
// created (lazily where the workload says so) and tiered up.
func setUp(w invokeWorkload, t *tally) (*liveGateway, error) {
	lg, err := startGateway(w)
	if err != nil {
		return nil, err
	}
	c := newClient(lg)
	defer c.close()
	for _, m := range w.modules {
		for k := 0; k < w.warmup; k++ {
			t.add(c.invoke(m, fmt.Sprintf("warm-%s-%d", m, k)))
		}
	}
	for _, fn := range lg.gw.Functions() {
		if fn.Pool().SharedTier1Bytes() == 0 {
			lg.close()
			return nil, fmt.Errorf("%s: warm-up did not reach tier 1", fn.Module())
		}
	}
	return lg, nil
}

// closedLoop runs the clients back to back for d: each sends its next
// request when the previous one is answered. Picks are consumed in order
// from the shared cursor next, which the caller may carry across phases.
// With tr set, every request is also a span. It returns the phase's length
// and when (from its start) each successful request was answered.
func closedLoop(lg *liveGateway, picks []string, next *atomic.Int64, d time.Duration, prefix string, t *tally, tr *tracer) (time.Duration, []time.Duration) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var okAt []time.Duration
	start := time.Now()
	for i := 0; i < clients; i++ {
		c := newClient(lg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for time.Since(start) < d {
				idx := next.Add(1) - 1
				t0 := time.Now()
				o := c.invoke(picks[idx%int64(len(picks))], fmt.Sprintf("%s-%d", prefix, idx))
				t1 := time.Now()
				t.add(o)
				if tr != nil {
					tr.add("loopback.closed", trackClosed, -1, idx, t0, t1)
				}
				if o.ok {
					mu.Lock()
					okAt = append(okAt, t1.Sub(start))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), okAt
}

// windowRates splits a closed-loop phase into equal windows of about win
// (at least one) and returns each window's completion rate (1/s).
func windowRates(okAt []time.Duration, elapsed, win time.Duration) []float64 {
	n := max(1, int(elapsed/win))
	w := elapsed / time.Duration(n)
	rates := make([]float64, n)
	for _, at := range okAt {
		rates[min(n-1, int(at/w))]++
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	return rates
}

// openReq is one open-loop request: when it was due (from the phase's
// start), how late it was sent, its latency (see openLoop) and whether it
// succeeded.
type openReq struct {
	due     time.Duration
	late    time.Duration
	latency time.Duration
	ok      bool
}

// timerSlack is the wake-up resolution of the Go runtime's timers on an
// idle Linux thread (its poller sleeps in whole milliseconds).
const timerSlack = time.Millisecond

// openLoop sends request i at start+schedule[i]-base, whoever of the clients
// is free first takes it; first is the index of schedule[0] in the whole
// run, which picks the module and names the request. Latency is timed from the due instant, so a stall
// also delays the requests queued behind it — with one exception: when the
// client sat idle until the due instant, up to timerSlack of its wake-up
// overshoot is the generator's timer, not the system, and is not counted.
// Every request's lateness is recorded for loadgen.late_p99_ms either way.
func openLoop(lg *liveGateway, picks []string, schedule []time.Duration, first int, base time.Duration, t *tally) []openReq {
	var next atomic.Int64
	reqs := make([]openReq, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		c := newClient(lg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for {
				idx := next.Add(1) - 1
				if idx >= int64(len(schedule)) {
					return
				}
				due := start.Add(schedule[idx] - base)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = due.Add(min(time.Since(due), timerSlack))
				}
				late := time.Since(due)
				n := int64(first) + idx
				o := c.invoke(picks[n%int64(len(picks))], fmt.Sprintf("open-%d", n))
				reqs[idx] = openReq{due: schedule[idx], late: late, latency: time.Since(from), ok: o.ok}
				t.add(o)
			}
		}()
	}
	wg.Wait()
	return reqs
}

// lateness lists how late each open-loop request was sent, in ms.
func lateness(reqs []openReq) []float64 {
	late := make([]float64, len(reqs))
	for i, r := range reqs {
		late[i] = float64(r.late) / 1e6
	}
	return late
}

// openWindows splits open-loop requests by due time into windows of length
// win and returns, per window, the latency quantiles qs (ms, successful
// requests; quantiles[j][i] is qs[j] of window i) and the share answered 200
// within limit (failures miss).
func openWindows(reqs []openReq, win, limit time.Duration, qs ...float64) (quantiles [][]float64, slo []float64) {
	type window struct {
		lat        []float64
		n, inLimit int
	}
	var ws []window
	for _, r := range reqs {
		i := int(r.due / win)
		for len(ws) <= i {
			ws = append(ws, window{})
		}
		ws[i].n++
		if r.ok {
			ws[i].lat = append(ws[i].lat, float64(r.latency)/1e6)
			if r.latency <= limit {
				ws[i].inLimit++
			}
		}
	}
	quantiles = make([][]float64, len(qs))
	for _, w := range ws {
		if w.n == 0 {
			continue
		}
		sort.Float64s(w.lat)
		for j, q := range qs {
			quantiles[j] = append(quantiles[j], sortedPercentile(w.lat, q))
		}
		slo = append(slo, float64(w.inLimit)/float64(w.n))
	}
	return quantiles, slo
}

// runInvoke is the end-to-end run of an invoke workload: set-up (repeated,
// median reported), cycles of a closed-loop capacity window and an
// open-loop latency window, the heap with the server live, then a graceful
// drain and the admission checks.
func runInvoke(o options, w invokeWorkload) (*report, error) {
	rep := newReport()
	var setupTimes []float64
	var lg *liveGateway
	var warm *tally
	for i := 0; i < setupReps; i++ {
		if lg != nil {
			if err := lg.close(); err != nil {
				return nil, err
			}
		}
		warm = &tally{}
		d, err := timed(func() error {
			var err error
			lg, err = setUp(w, warm)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	rep.set("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.check(warm.ok == warm.attempted && len(warm.checkErrs) == 0,
		"warm-up: %d of %d answered 200 (%v)", warm.ok, warm.attempted, warm.checkErrs)

	// Each metric is the median over its windows, so one burst of
	// interference moves a run's figure by one window. The open-loop
	// schedule is drawn for the whole run and cut at window boundaries.
	cycles := max(1, int(seconds(o.seconds)/cycleLength))
	closedWin := seconds(o.seconds*closedShare) / time.Duration(cycles)
	openWin := seconds(o.seconds)/time.Duration(cycles) - closedWin
	picks := zipfPicks(o.seed, w.modules, w.zipfS, 1<<16)
	schedule := poissonSchedule(o.seed, w.openRate, openWin*time.Duration(cycles))
	closed, open := &tally{}, &tally{}
	var next atomic.Int64
	var rates []float64
	var reqs []openReq
	for k, sent := 0, 0; k < cycles; k++ {
		elapsed, okAt := closedLoop(lg, picks, &next, closedWin, "closed", closed, nil)
		rates = append(rates, windowRates(okAt, elapsed, closedWin)...)
		base := openWin * time.Duration(k)
		n := sort.Search(len(schedule), func(i int) bool { return schedule[i] >= base+openWin })
		reqs = append(reqs, openLoop(lg, picks, schedule[sent:n], sent, base, open)...)
		sent = n
	}
	rep.set("rps", median(rates), "1/s", int(closed.ok))
	qs, slos := openWindows(reqs, openWin, w.sloLimit, 0.5, 0.99)
	rep.set("p50_ms", median(qs[0]), "ms", int(open.ok))
	rep.set("slo_attain", median(slos), "ratio", int(open.attempted))
	late := summarize(lateness(reqs))
	// The tail is printed, not reported: see README.md on host noise.
	fmt.Fprintf(o.out, "p99_ms %.4f (median over %d windows of %v)\n", median(qs[1]), len(qs[1]), openWin)
	fmt.Fprintf(o.out, "%d cycles: closed loop %v, open loop %v; %d open-loop requests at %.0f/s, generator late p50 %.3f ms p99 %.3f ms\n",
		cycles, closedWin, openWin, len(reqs), w.openRate, late.P50, late.P99)

	rep.set("heap_mib", heapMiB(), "MiB", 1)

	if err := lg.close(); err != nil {
		return nil, err
	}
	st := lg.gw.Router().Stats()
	rep.check(st.IdentityHolds(), "admission identity broken after drain: %+v", st.Aggregate)
	rep.check(st.Aggregate.Submitted == lg.answered.Load(),
		"router submitted %d, client saw %d answered", st.Aggregate.Submitted, lg.answered.Load())
	for _, t := range []*tally{closed, open} {
		for _, e := range t.checkErrs {
			rep.check(false, "response check: %v", e)
		}
	}
	rep.attempted = closed.attempted + open.attempted
	rep.failed = rep.attempted - closed.ok - open.ok
	return rep, nil
}
