package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"wasmcontainers/internal/gateway"
	"wasmcontainers/internal/metrics"
	"wasmcontainers/internal/serve"
)

// GatewayClients is the concurrency sweep of the gateway experiment: real
// HTTP client goroutines hammering one function over loopback.
var GatewayClients = []int{1, 4, 8}

// gatewayRequestsPerClient keeps the experiment quick while still producing
// enough traffic for stable percentiles and real contention.
const gatewayRequestsPerClient = 25

// gatewayRun is one cell of the sweep: a live continuumd-style server under
// c concurrent clients.
type gatewayRun struct {
	Clients  int
	OK       int
	Backoff  int // 429 + 503: admission refusals with retry advice
	Timeout  int // 504: queue deadline or request timeout
	Other    int
	Stats    serve.DispatcherStats
	SimMs    metrics.Summary // simulated latency of successful invokes
	WallMs   metrics.Summary // wall-clock time of successful round trips
	Identity bool
}

// measureGateway serves one function at dilation 0 (as fast as the loop can
// step, the deterministic mode) on a loopback listener, runs the client
// fleet, then drains gracefully and checks the admission identity.
func measureGateway(clients int) (gatewayRun, error) {
	fc := gateway.DefaultFunction()
	gw, err := gateway.New(gateway.Config{
		Functions: []gateway.FunctionConfig{fc},
		Bridge:    gateway.BridgeConfig{Dilation: 0},
		Telemetry: Telemetry(),
	})
	if err != nil {
		return gatewayRun{}, err
	}
	gw.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return gatewayRun{}, err
	}
	srv := &http.Server{Handler: gw}
	go srv.Serve(ln)
	url := fmt.Sprintf("http://%s/v1/functions/%s", ln.Addr(), fc.Module)

	run := gatewayRun{Clients: clients}
	var (
		mu     sync.Mutex
		simMs  []float64
		wallMs []float64
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < gatewayRequestsPerClient; i++ {
				start := time.Now()
				resp, err := client.Post(url, "application/octet-stream", strings.NewReader("bench"))
				if err != nil {
					mu.Lock()
					run.Other++
					mu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				wall := time.Since(start)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					run.OK++
					wallMs = append(wallMs, float64(wall)/1e6)
					var sm float64
					if _, err := fmt.Sscanf(resp.Header.Get("X-Sim-Latency-Ms"), "%f", &sm); err == nil {
						simMs = append(simMs, sm)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					run.Backoff++
				case http.StatusGatewayTimeout:
					run.Timeout++
				default:
					run.Other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		return gatewayRun{}, fmt.Errorf("gateway drain: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return gatewayRun{}, err
	}
	st := gw.Router().Stats().Aggregate
	run.Stats = st
	run.Identity = st.Submitted == st.Completed+st.Rejected+st.Expired+st.Failed
	run.SimMs = metrics.Summarize(simMs)
	run.WallMs = metrics.Summarize(wallMs)
	return run, nil
}

// Gateway is the `gateway` experiment: the real network front door over the
// simulated cluster, exercised by genuinely concurrent HTTP clients. It
// validates the DES bridge under load — every admission outcome maps to an
// HTTP status, and the dispatcher's conservation identity survives a
// graceful drain — and reports simulated next to wall latency.
func Gateway() (*Table, error) {
	t := &Table{
		Title: "Gateway: continuumd over loopback, concurrent clients, dilation 0",
		Columns: []string{
			"clients", "offered", "http 200", "http 429/503", "http 504", "other",
			"done", "rejected", "expired", "sim p50 (ms)", "sim p95 (ms)",
			"wall p50 (ms)", "identity",
		},
	}
	for _, clients := range GatewayClients {
		run, err := measureGateway(clients)
		if err != nil {
			return nil, err
		}
		offered := clients * gatewayRequestsPerClient
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", run.Clients),
			fmt.Sprintf("%d", offered),
			fmt.Sprintf("%d", run.OK),
			fmt.Sprintf("%d", run.Backoff),
			fmt.Sprintf("%d", run.Timeout),
			fmt.Sprintf("%d", run.Other),
			fmt.Sprintf("%d", run.Stats.Completed),
			fmt.Sprintf("%d", run.Stats.Rejected),
			fmt.Sprintf("%d", run.Stats.Expired),
			fmt.Sprintf("%.3f", run.SimMs.P50),
			fmt.Sprintf("%.3f", run.SimMs.P95),
			fmt.Sprintf("%.3f", run.WallMs.P50),
			fmt.Sprintf("%t", run.Identity),
		})
		if !run.Identity {
			return nil, fmt.Errorf("gateway: conservation identity broken at %d clients: %+v",
				clients, run.Stats)
		}
	}
	t.Notes = append(t.Notes,
		"each row is a live HTTP server on loopback: N client goroutines x "+
			fmt.Sprintf("%d", gatewayRequestsPerClient)+" sequential POST /v1/functions/request-handler",
		"dilation 0 runs virtual time as fast as the event loop steps it; sim latency is the DES cost, wall latency the real round trip",
		"identity: Submitted == Completed + Rejected + Expired + Failed after SIGTERM-style drain",
	)
	return t, nil
}
