package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/gateway"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/obs/slo"
)

// The smoke's settings are fixed so every run walks the same script: three
// nodes at dilation 0, lazy creation for the handler variants, 1 ms sample
// windows under the default SLO pair with a 100 ms base window (requests
// cost a few ms of sim time each, so the page rule's short window, base/12,
// still sees sustained failure), and tail sampling.
const (
	smokeNodes        = 3
	smokeDrainTimeout = 30 * time.Second
	smokeSample       = time.Millisecond
	smokeSLOBase      = 100 * time.Millisecond
)

// smokeModules are the invoked modules: the fixed function first, then two
// variants created on their first request.
var smokeModules = []string{"request-handler", "request-handler-v1", "request-handler-v2"}

// smoke is one running smoke: the gateway behind a loopback listener.
type smoke struct {
	gw     *gateway.Server
	base   string
	client *http.Client
}

// runSmoke is `continuumd -smoke` (`make smoke`): it boots the daemon on a
// random loopback port and walks one script over HTTP —
//
//  1. shards: three modules answer 200 (two created lazily); /metrics has a
//     populated dispatch_latency_ns histogram, a positive
//     router_completed_total per module and positive router_batches_total;
//  2. slo: healthy traffic raises no page transition and /v1/timeseries
//     has published windows; a 100% trap burst fires the availability page,
//     visible on /v1/slo; recovery clears it;
//  3. failover: killing the node serving request-handler re-places it on a
//     survivor, invokes keep answering 200, /v1/cluster reports the node
//     dead;
//
// then SIGTERMs itself and requires the drain to exit 0, which holds only
// when every module's admission identity balances.
func runSmoke() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "smoke: FAIL: "+format+"\n", args...)
		return 1
	}
	fc := gateway.DefaultFunction()
	fc.MaxRetries = 0 // a trap is a final error: it must burn budget, not retry away
	tmpl := fc
	gw, err := gateway.New(gateway.Config{
		Functions:      []gateway.FunctionConfig{fc},
		LazyTemplate:   &tmpl,
		Bridge:         gateway.BridgeConfig{Dilation: 0},
		ClusterNodes:   smokeNodes,
		SampleInterval: smokeSample,
		SLOObjectives:  gateway.DefaultSLOObjectives(0.99, 0.95, 50*time.Millisecond),
		SLOBaseWindow:  smokeSLOBase,
		TailSampling:   &obs.TailConfig{},
	})
	if err != nil {
		return fail("gateway: %v", err)
	}
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		code, err := serveUntilSignal(gw, "127.0.0.1:0", smokeDrainTimeout, "", ready)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		exit <- code
	}()
	sm := &smoke{gw: gw, client: &http.Client{Timeout: 30 * time.Second}}
	select {
	case addr := <-ready:
		sm.base = "http://" + addr
	case <-time.After(10 * time.Second):
		return fail("server did not come up")
	}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"shards", sm.shards},
		{"slo", sm.slo},
		{"failover", sm.failover},
	} {
		if err := step.run(); err != nil {
			return fail("%s: %v", step.name, err)
		}
		fmt.Fprintf(os.Stderr, "smoke: %s ok\n", step.name)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return fail("self-SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			return fail("drain exited %d", code)
		}
	case <-time.After(smokeDrainTimeout + 10*time.Second):
		return fail("drain did not complete")
	}
	fmt.Fprintln(os.Stderr, "smoke: ok")
	return 0
}

// invoke posts n requests to module and requires each to answer want.
func (sm *smoke) invoke(module string, n, want int) error {
	for i := 0; i < n; i++ {
		resp, err := sm.client.Post(sm.base+"/v1/functions/"+module,
			"application/octet-stream", strings.NewReader("ping"))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("invoke %s: status %d, want %d", module, resp.StatusCode, want)
		}
	}
	return nil
}

// get fetches path; a non-nil v decodes the JSON body into it, else the
// body comes back as text.
func (sm *smoke) get(path string, v any) (string, error) {
	resp, err := sm.client.Get(sm.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v != nil {
		return "", json.NewDecoder(resp.Body).Decode(v)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func (sm *smoke) shards() error {
	for _, m := range smokeModules {
		if err := sm.invoke(m, 3, http.StatusOK); err != nil {
			return err
		}
	}
	text, err := sm.get("/metrics", nil)
	if err != nil {
		return err
	}
	if !samplePositive(text, "dispatch_latency_ns_count") {
		return fmt.Errorf("/metrics has no populated dispatch_latency_ns histogram")
	}
	for _, m := range smokeModules {
		if sample := fmt.Sprintf("router_completed_total{module=%q}", m); !samplePositive(text, sample) {
			return fmt.Errorf("/metrics missing a positive %s", sample)
		}
	}
	if !samplePositive(text, "router_batches_total") {
		return fmt.Errorf("/metrics missing a positive router_batches_total")
	}
	return nil
}

func (sm *smoke) slo() error {
	module := smokeModules[0]
	eng := sm.gw.SLO()
	pageTransitions := func() int64 {
		var n int64
		for _, o := range eng.Status().Objectives {
			for _, a := range o.Alerts {
				if a.Severity == slo.Page {
					n += a.Transitions
				}
			}
		}
		return n
	}
	if err := sm.invoke(module, 40, http.StatusOK); err != nil {
		return err
	}
	if eng.Firing("") || pageTransitions() != 0 {
		return fmt.Errorf("healthy traffic raised an alert: %+v", eng.Status())
	}
	var tsr struct {
		Stats struct {
			Published int64 `json:"published"`
		} `json:"stats"`
	}
	if _, err := sm.get("/v1/timeseries", &tsr); err != nil || tsr.Stats.Published == 0 {
		return fmt.Errorf("/v1/timeseries published no windows (err=%v): %+v", err, tsr)
	}

	// The injector is engine state, so arming it hops onto the bridge loop.
	fn, _ := sm.gw.Function(module)
	arm := func(in *faults.Injector) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return sm.gw.Bridge().Do(ctx, func() { fn.Engine().SetFaultInjector(in) })
	}
	if err := arm(faults.New(faults.Config{Seed: 42, TrapRate: 1})); err != nil {
		return err
	}
	for i := 0; i < 20 && !eng.Firing(slo.Page); i++ {
		if err := sm.invoke(module, 10, http.StatusInternalServerError); err != nil {
			return err
		}
	}
	if !eng.Firing(slo.Page) {
		return fmt.Errorf("page alert never fired under 100%% errors: %+v", eng.Status())
	}
	var st slo.Status
	if _, err := sm.get("/v1/slo", &st); err != nil {
		return err
	}
	visible := false
	for _, o := range st.Objectives {
		for _, a := range o.Alerts {
			visible = visible || (a.Severity == slo.Page && a.Firing)
		}
	}
	if !visible {
		return fmt.Errorf("firing page not visible on /v1/slo: %+v", st)
	}

	if err := arm(nil); err != nil {
		return err
	}
	for i := 0; i < 30 && eng.Firing(slo.Page); i++ {
		if err := sm.invoke(module, 10, http.StatusOK); err != nil {
			return err
		}
	}
	if eng.Firing(slo.Page) {
		return fmt.Errorf("page alert never cleared after recovery: %+v", eng.Status())
	}
	return nil
}

func (sm *smoke) failover() error {
	module := smokeModules[0]
	placement := func() (gateway.ClusterStatus, string, error) {
		var st gateway.ClusterStatus
		if _, err := sm.get("/v1/cluster", &st); err != nil {
			return st, "", err
		}
		for _, f := range st.Functions {
			if f.Module == module {
				return st, f.Node, nil
			}
		}
		return st, "", fmt.Errorf("%s missing from /v1/cluster", module)
	}
	st, home, err := placement()
	if err != nil {
		return err
	}
	if len(st.Nodes) < smokeNodes || home == "" {
		return fmt.Errorf("%d nodes, %s placed on %q", len(st.Nodes), module, home)
	}
	resp, err := sm.client.Post(sm.base+"/v1/cluster/nodes/"+home+"/fail", "application/json", nil)
	if err != nil {
		return err
	}
	var fr gateway.NodeFailResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decodeErr != nil {
		return fmt.Errorf("fail node %s: status %d, decode %v", home, resp.StatusCode, decodeErr)
	}
	replaced := false
	for _, m := range fr.Replaced {
		replaced = replaced || m == module
	}
	if !replaced {
		return fmt.Errorf("node %s failed but %s not in the re-placed set %v", home, module, fr.Replaced)
	}
	if err := sm.invoke(module, 3, http.StatusOK); err != nil {
		return fmt.Errorf("after failover: %v", err)
	}
	st, now, err := placement()
	if err != nil {
		return err
	}
	for _, n := range st.Nodes {
		if n.Name == home && n.Alive {
			return fmt.Errorf("node %s still reported alive", home)
		}
	}
	if now == home || now == "" {
		return fmt.Errorf("%s still placed on %q after failover", module, now)
	}
	return nil
}

// samplePositive reports whether the exposition text has a sample named
// exactly `sample` (including any label set) with a positive value.
func samplePositive(text, sample string) bool {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == sample && fields[1] != "0" {
			return true
		}
	}
	return false
}
