package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newClusterGateway boots a dilation-0 gateway over a multi-node cluster.
func newClusterGateway(t *testing.T, nodes int, fcs ...FunctionConfig) (*Server, *httptest.Server) {
	t.Helper()
	gw, err := New(Config{
		Functions:    fcs,
		Bridge:       BridgeConfig{Dilation: 0},
		ClusterNodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Bridge().Stop()
	})
	return gw, ts
}

// TestFailingEveryNode: killing the last live node is still a successful
// kill — 200, and /v1/cluster reports every node dead — after which
// invokes answer 503 no_live_node.
func TestFailingEveryNode(t *testing.T) {
	fc := DefaultFunction()
	_, ts := newClusterGateway(t, 3, fc)
	client := &http.Client{Timeout: 30 * time.Second}
	url := ts.URL + "/v1/functions/" + fc.Module
	if resp, _ := invoke(t, client, url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke: status %d", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		node := fmt.Sprintf("worker-%d", i)
		if _, status := failNode(t, client, ts.URL, node); status != http.StatusOK {
			t.Fatalf("fail %s: status %d, want 200", node, status)
		}
	}
	st := clusterStatus(t, client, ts.URL)
	for _, n := range st.Nodes {
		if n.Alive || len(n.Replicas) != 0 {
			t.Fatalf("node %s alive=%v hosting %v after every node failed", n.Name, n.Alive, n.Replicas)
		}
	}
	if f := st.Functions[0]; f.Node != "" || f.Stats.Completed != 1 {
		t.Fatalf("function placed on %q with %d completed, want no placement and 1", f.Node, f.Stats.Completed)
	}
	resp, body := invoke(t, client, url, nil)
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "no_live_node" {
		t.Fatalf("invoke on a dead cluster: status %d code %q, want 503 no_live_node",
			resp.StatusCode, env.Error.Code)
	}
}

// TestFailoverUnderConcurrentLoad fails a node over HTTP while client
// goroutines keep invoking two functions and scrapers read /v1/cluster and
// /metrics. After the drain each module's admission identity holds over
// all its replicas, and its completions equal the 200s its clients saw —
// which only adds up when the retired replica's requests are counted.
// Under -race this also checks the failover path keeps the DES threading
// contract.
func TestFailoverUnderConcurrentLoad(t *testing.T) {
	fc := DefaultFunction()
	fc2 := fc
	fc2.Module = "request-handler-v1"
	gw, ts := newClusterGateway(t, 3, fc, fc2)
	client := &http.Client{Timeout: 30 * time.Second}
	home := clusterStatus(t, client, ts.URL).Functions[0].Node

	const clients, perClient = 4, 30
	var (
		mu      sync.Mutex
		ok      = map[string]int64{}
		answers int
		other   []int
		wg      sync.WaitGroup
	)
	half := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				m := []string{fc.Module, fc2.Module}[(c+i)%2]
				resp, _ := invoke(t, client, ts.URL+"/v1/functions/"+m, nil)
				mu.Lock()
				if resp.StatusCode == http.StatusOK {
					ok[m]++
				} else {
					other = append(other, resp.StatusCode)
				}
				if answers++; answers == clients*perClient/2 {
					close(half)
				}
				mu.Unlock()
			}
		}(c)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			for _, p := range []string{"/v1/cluster", "/metrics"} {
				resp, err := client.Get(ts.URL + p)
				if err != nil {
					t.Errorf("scrape %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	<-half
	fr, status := failNode(t, client, ts.URL, home)
	if status != http.StatusOK || len(fr.Replaced) == 0 {
		t.Fatalf("fail %s mid-traffic: status %d, replaced %v", home, status, fr.Replaced)
	}
	wg.Wait()
	close(stop)
	<-scraped

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(other) != 0 {
		t.Fatalf("non-200 answers across the failover: %v", other)
	}
	rs := gw.Router().Stats()
	if len(rs.Shards) != 2 {
		t.Fatalf("stats cover %d modules, want 2", len(rs.Shards))
	}
	for _, sh := range rs.Shards {
		if !sh.IdentityHolds() {
			t.Errorf("%s: admission identity broken after drain: %+v", sh.Module, sh.Stats)
		}
		if sh.Stats.Completed != ok[sh.Module] {
			t.Errorf("%s: %d completed across its replicas, clients saw %d 200s",
				sh.Module, sh.Stats.Completed, ok[sh.Module])
		}
	}
}

// TestContainerStartPacedBesideInvokes: at dilation > 0 a container start
// steps its scheduling and CRI events at their paced times on the one
// serving clock, so an invoke sent while the start is in flight answers
// in its own dilated latency instead of waiting out the start's simulated
// duration (about 3 s for crun-wamr).
func TestContainerStartPacedBesideInvokes(t *testing.T) {
	const dilation = 0.2
	gw, err := New(Config{
		Functions: []FunctionConfig{DefaultFunction()},
		Bridge:    BridgeConfig{Dilation: dilation},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Bridge().Stop()
	})
	client := &http.Client{Timeout: 30 * time.Second}

	resp, err := client.Post(ts.URL+"/v1/containers/create", "application/json",
		strings.NewReader(`{"Runtime":"crun-wamr"}`))
	if err != nil {
		t.Fatal(err)
	}
	var created ContainerCreateResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d err %v", resp.StatusCode, err)
	}

	started := make(chan int, 1)
	t0 := time.Now()
	go func() {
		resp, err := client.Post(ts.URL+"/v1/containers/"+created.ID+"/start", "", nil)
		if err != nil {
			t.Error(err)
			started <- 0
			return
		}
		resp.Body.Close()
		started <- resp.StatusCode
	}()
	// Wait until the scheduler has claimed the pod: the start is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var list []ContainerSummary
		getJSON(t, client, ts.URL+"/v1/containers/json?all=1", &list)
		if len(list) == 1 && list[0].Status == "Scheduled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pod never admitted: %+v", list)
		}
		time.Sleep(time.Millisecond)
	}

	t1 := time.Now()
	r, _ := invoke(t, client, ts.URL+"/v1/functions/request-handler", nil)
	invokeWall := time.Since(t1)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("invoke: status %d", r.StatusCode)
	}
	select {
	case <-started:
		t.Fatal("the start finished before the invoke answered: the two did not overlap")
	default:
	}
	if status := <-started; status != http.StatusNoContent {
		t.Fatalf("start: status %d, want 204", status)
	}
	startWall := time.Since(t0)
	if invokeWall > startWall/4 {
		t.Fatalf("invoke took %s while a %s start was in flight: it waited on the start", invokeWall, startWall)
	}
}
